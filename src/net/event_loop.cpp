#include "net/event_loop.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "net/tcp_transport.hpp"

namespace rproxy::net {

using util::ErrorCode;

namespace {

std::uint64_t mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000u;
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Encodes `reply` as one wire frame (length prefix + envelope), ready to
/// append to a connection's write buffer.
util::Bytes encode_reply_frame(const Envelope& reply) {
  wire::Encoder enc;
  encode_envelope(enc, reply);
  const util::BytesView body = enc.view();
  const auto len = static_cast<std::uint32_t>(body.size());
  util::Bytes frame(4 + body.size());
  frame[0] = static_cast<std::uint8_t>(len >> 24);
  frame[1] = static_cast<std::uint8_t>(len >> 16);
  frame[2] = static_cast<std::uint8_t>(len >> 8);
  frame[3] = static_cast<std::uint8_t>(len);
  if (!body.empty()) std::memcpy(frame.data() + 4, body.data(), body.size());
  return frame;
}

}  // namespace

EventLoopServer::~EventLoopServer() { stop(); }

void EventLoopServer::attach(NodeId id, Node& node) {
  nodes_[std::move(id)] = &node;
}

util::Status EventLoopServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return util::fail(ErrorCode::kInternal, "socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return util::fail(ErrorCode::kInternal, "bind() failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return util::fail(ErrorCode::kInternal, "getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    return util::fail(ErrorCode::kInternal, "listen() failed");
  }

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return util::fail(ErrorCode::kInternal, "epoll_create1() failed");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return util::fail(ErrorCode::kInternal, "eventfd() failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  stopping_ = false;
  reactor_ = std::thread([this] { reactor_loop_(); });
  const std::size_t n = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop_(); });
  }
  return util::Status::ok();
}

void EventLoopServer::stop() {
  if (!running_.exchange(false)) return;
  // Kick the reactor out of epoll_wait; it closes every connection on the
  // way out (it owns them).
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  if (reactor_.joinable()) reactor_.join();
  {
    std::lock_guard lock(tasks_mutex_);
    stopping_ = true;
  }
  tasks_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  ::close(wake_fd_);
  ::close(epoll_fd_);
  ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

void EventLoopServer::reactor_loop_() {
  // The idle scan needs a tick even when no socket stirs; otherwise we
  // sleep until woken (stop() and workers both use the eventfd).
  const int timeout_ms =
      options_.idle_timeout > 0
          ? static_cast<int>(
                std::max<util::Duration>(1, options_.idle_timeout / 2000))
          : -1;
  epoll_event events[64];
  while (running_.load()) {
    const int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (!running_.load()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_new_();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t n = ::read(wake_fd_, &drain, sizeof(drain));
        drain_completions_();
        continue;
      }
      // Re-resolve on every event: an earlier event in this batch may
      // have closed the connection.
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_connection_(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) on_writable_(conn);
      // on_writable_ may have closed the fd (hard write error).
      if (conns_.find(fd) == conns_.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) on_readable_(conn);
    }
    if (options_.idle_timeout > 0) scan_idle_(mono_us());
  }
  for (auto& [fd, conn] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  active_.store(0);
  conns_.clear();
}

void EventLoopServer::accept_new_() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: drained the backlog
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = mono_us();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    active_.fetch_add(1);
  }
}

void EventLoopServer::on_readable_(Connection& conn) {
  const int fd = conn.fd;
  std::uint8_t chunk[64 * 1024];
  bool peer_closed = false;
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      conn.read_buf.insert(conn.read_buf.end(), chunk, chunk + got);
      conn.last_activity = mono_us();
      // A short read drained the socket; skip the recv that would only
      // say EAGAIN.  epoll is level-triggered, so bytes (or an EOF) that
      // land later raise a fresh event.
      if (static_cast<std::size_t>(got) < sizeof(chunk)) break;
      continue;
    }
    if (got == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection_(fd);
    return;
  }
  if (!drain_read_buffer_(conn)) {
    // Oversized length prefix: the stream cannot be resynchronized.
    close_connection_(fd);
    return;
  }
  if (peer_closed) {
    // Peer finished sending.  A clean half-close with requests still in
    // flight could in principle wait for their replies, but both
    // transports treat client close as end-of-conversation — and a
    // mid-frame disconnect leaves an unparseable stub that must not leak.
    close_connection_(fd);
  }
}

bool EventLoopServer::drain_read_buffer_(Connection& conn) {
  std::size_t off = 0;
  std::size_t queued = 0;
  while (!conn.reading_paused && conn.read_buf.size() - off >= 4) {
    const std::uint8_t* p = conn.read_buf.data() + off;
    const std::uint32_t len = (std::uint32_t{p[0]} << 24) |
                              (std::uint32_t{p[1]} << 16) |
                              (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
    if (len > kMaxFrameBytes) return false;
    if (conn.read_buf.size() - off < 4 + std::size_t{len}) break;
    Task task;
    task.fd = conn.fd;
    task.conn_id = conn.id;
    task.seq = conn.next_assign_seq++;
    task.frame.assign(p + 4, p + 4 + len);
    off += 4 + len;
    conn.in_flight += 1;
    {
      std::lock_guard lock(tasks_mutex_);
      tasks_.push_back(std::move(task));
    }
    queued += 1;
    if (conn.in_flight >= options_.max_pipeline) {
      // Backpressure: stop reading until replies drain.  Bytes already
      // received stay in read_buf; the kernel buffer and then the peer
      // absorb the rest.
      conn.reading_paused = true;
      update_epoll_(conn);
    }
  }
  if (off > 0) {
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<std::ptrdiff_t>(off));
  }
  // One wake per frame: waking every worker for one frame sends all but
  // one straight back to sleep.  Workers re-check the queue under the
  // lock before they wait, so a signal that finds no waiter loses no task.
  for (std::size_t i = 0; i < queued; ++i) tasks_cv_.notify_one();
  return true;
}

void EventLoopServer::worker_loop_() {
  while (true) {
    Task task;
    {
      std::unique_lock lock(tasks_mutex_);
      tasks_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    wire::Decoder dec(task.frame);
    Envelope request = decode_envelope(dec);
    Envelope reply;
    if (!dec.finish().is_ok()) {
      // Framed garbage: the stream itself is intact, so answer in-slot
      // and keep serving (same contract as the thread-pool server).
      reply = make_error_reply(
          request, util::fail(ErrorCode::kParseError, "malformed envelope"));
    } else {
      auto it = nodes_.find(request.to);
      if (it == nodes_.end()) {
        reply = make_error_reply(
            request, util::fail(ErrorCode::kNotFound,
                                "no node '" + request.to + "' here"));
      } else {
        // Concurrent dispatch: handlers lock their own state (see
        // DESIGN.md "Concurrency model").
        reply = it->second->handle(request);
        reply.from = request.to;
        reply.to = request.from;
      }
    }
    Completion done;
    done.fd = task.fd;
    done.conn_id = task.conn_id;
    done.seq = task.seq;
    done.reply_frame = encode_reply_frame(reply);
    bool first = false;
    {
      std::lock_guard lock(completions_mutex_);
      first = completions_.empty();
      completions_.push_back(std::move(done));
    }
    // One eventfd write per burst: a completion that finds the queue
    // non-empty rides the wake of the one that made it non-empty.
    if (first) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }
  }
}

void EventLoopServer::drain_completions_() {
  std::vector<Completion> batch;
  {
    // Take the WHOLE queue: the workers' coalesced wake relies on it.
    // Once this swap empties the queue, the next push is again the first
    // and writes the eventfd; a bounded drain would leave completions
    // behind with no write to come for them.
    std::lock_guard lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& done : batch) {
    auto it = conns_.find(done.fd);
    // The connection may be gone — or the fd reused by a NEW connection;
    // the generation tag tells them apart.
    if (it == conns_.end() || it->second->id != done.conn_id) continue;
    queue_reply_(*it->second, done.seq, std::move(done.reply_frame));
  }
}

void EventLoopServer::queue_reply_(Connection& conn, std::uint64_t seq,
                                   util::Bytes frame) {
  conn.held_replies.emplace(seq, std::move(frame));
  // Release the in-order prefix: replies go out strictly in request
  // order, so a reply that finished early parks until its predecessors
  // are done.
  while (true) {
    auto next = conn.held_replies.find(conn.next_reply_seq);
    if (next == conn.held_replies.end()) break;
    conn.write_buf.insert(conn.write_buf.end(), next->second.begin(),
                          next->second.end());
    conn.held_replies.erase(next);
    conn.next_reply_seq += 1;
    conn.in_flight -= 1;
    served_.fetch_add(1);
  }
  if (conn.reading_paused && conn.in_flight < options_.max_pipeline) {
    conn.reading_paused = false;
    update_epoll_(conn);
    // Frames may already be buffered past the pause point.
    if (!drain_read_buffer_(conn)) {
      close_connection_(conn.fd);
      return;
    }
  }
  flush_write_(conn);
}

void EventLoopServer::on_writable_(Connection& conn) { flush_write_(conn); }

void EventLoopServer::flush_write_(Connection& conn) {
  const int fd = conn.fd;
  while (conn.write_off < conn.write_buf.size()) {
    const ssize_t put =
        ::send(fd, conn.write_buf.data() + conn.write_off,
               conn.write_buf.size() - conn.write_off, MSG_NOSIGNAL);
    if (put >= 0) {
      conn.write_off += static_cast<std::size_t>(put);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_epoll_(conn);
      }
      return;
    }
    close_connection_(fd);
    return;
  }
  conn.write_buf.clear();
  conn.write_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll_(conn);
  }
}

void EventLoopServer::update_epoll_(Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.reading_paused ? 0u : std::uint32_t{EPOLLIN}) |
              (conn.want_write ? std::uint32_t{EPOLLOUT} : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoopServer::close_connection_(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
  active_.fetch_sub(1);
}

void EventLoopServer::scan_idle_(std::uint64_t now_us) {
  const auto limit = static_cast<std::uint64_t>(options_.idle_timeout);
  std::vector<int> victims;
  for (const auto& [fd, conn] : conns_) {
    // Only truly quiet connections: nothing mid-handler, nothing waiting
    // to flush — just silence (or a dribble of header bytes: the
    // slow-loris case, since partial frames never become in_flight work).
    if (conn->in_flight == 0 && conn->write_buf.empty() &&
        now_us - conn->last_activity > limit) {
      victims.push_back(fd);
    }
  }
  for (const int fd : victims) {
    // Count before closing: a peer that sees the close may read the count.
    idle_closed_.fetch_add(1);
    close_connection_(fd);
  }
}

}  // namespace rproxy::net
