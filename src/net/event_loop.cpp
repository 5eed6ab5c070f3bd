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

void wake(int event_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(event_fd, &one, sizeof(one));
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

/// Runs `node`'s handler and encodes its reply frame.  Concurrent
/// dispatch: handlers lock their own state (DESIGN.md "Concurrency
/// model").
util::Bytes serve(Node& node, const Envelope& request) {
  Envelope reply = node.handle(request);
  reply.from = request.to;
  reply.to = request.from;
  return encode_reply_frame(reply);
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

  const std::size_t n = std::max<std::size_t>(1, options_.workers);
  for (std::size_t i = 0; i < n; ++i) {
    auto r = std::make_unique<Reactor>();
    r->epoll_fd = ::epoll_create1(0);
    r->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      return util::fail(ErrorCode::kInternal, "epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
    if (i == 0) {
      // Only the first reactor accepts; it deals connections to all.
      ev.data.fd = listen_fd_;
      ::epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    reactors_.push_back(std::move(r));
  }

  running_.store(true);
  stopping_ = false;
  for (const auto& r : reactors_) {
    r->thread = std::thread([this, reactor = r.get()] {
      reactor_loop_(*reactor);
    });
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop_(); });
  }
  return util::Status::ok();
}

void EventLoopServer::stop() {
  if (!running_.exchange(false)) return;
  // Kick every reactor out of epoll_wait, then join them all before
  // touching their state: the listening reactor may still deal a
  // connection into another's inbox on its way out.
  for (const auto& r : reactors_) wake(r->wake_fd);
  for (const auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  {
    std::lock_guard lock(tasks_mutex_);
    stopping_ = true;
  }
  tasks_cv_.notify_all();
  // Workers finish the queued tasks; their completions land in inboxes
  // nobody drains, which is fine (the eventfds stay open until here).
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  for (const auto& r : reactors_) {
    for (const auto& [fd, conn] : r->conns) ::close(fd);
    for (const int fd : r->inbox.accepted) ::close(fd);
    ::close(r->wake_fd);
    ::close(r->epoll_fd);
  }
  reactors_.clear();
  active_.store(0);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

template <typename Push>
void EventLoopServer::post_(Reactor& r, Push&& push) {
  bool first = false;
  {
    std::lock_guard lock(r.inbox_mutex);
    first = r.inbox.empty();
    push(r.inbox);
  }
  // One eventfd write per burst: a push that finds the inbox non-empty
  // rides the wake of the one that made it non-empty.
  if (first) wake(r.wake_fd);
}

void EventLoopServer::reactor_loop_(Reactor& r) {
  // The idle scan needs a tick even when no socket stirs; otherwise we
  // sleep until woken (stop() and inbox pushes both use the eventfd).
  const int timeout_ms =
      options_.idle_timeout > 0
          ? static_cast<int>(
                std::max<util::Duration>(1, options_.idle_timeout / 2000))
          : -1;
  epoll_event events[64];
  while (running_.load()) {
    const int ready = ::epoll_wait(r.epoll_fd, events, 64, timeout_ms);
    if (!running_.load()) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_new_(r);
        continue;
      }
      if (fd == r.wake_fd) {
        std::uint64_t drain = 0;
        [[maybe_unused]] ssize_t n = ::read(r.wake_fd, &drain, sizeof(drain));
        drain_inbox_(r);
        continue;
      }
      // Re-resolve on every event: an earlier event in this batch may
      // have closed the connection.
      auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        close_connection_(r, fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) flush_write_(r, conn);
      // flush_write_ may have closed the fd (hard write error).
      if (r.conns.find(fd) == r.conns.end()) continue;
      if ((events[i].events & EPOLLIN) != 0) on_readable_(r, conn);
    }
    if (options_.idle_timeout > 0) scan_idle_(r, mono_us());
  }
}

void EventLoopServer::accept_new_(Reactor& r) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN: drained the backlog
    set_nodelay(fd);
    active_.fetch_add(1);
    // Round-robin, not SO_REUSEPORT: a hash of four connections over
    // eight listeners doubles some reactor up most of the time.
    Reactor& target = *reactors_[next_deal_++ % reactors_.size()];
    if (&target == &r) {
      adopt_(r, fd);
    } else {
      post_(target, [fd](Inbox& inbox) { inbox.accepted.push_back(fd); });
    }
  }
}

void EventLoopServer::adopt_(Reactor& r, int fd) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = r.next_conn_id++;
  conn->last_activity = mono_us();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    active_.fetch_sub(1);
    return;
  }
  r.conns.emplace(fd, std::move(conn));
}

void EventLoopServer::on_readable_(Reactor& r, Connection& conn) {
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
    close_connection_(r, fd);
    return;
  }
  if (!drain_read_buffer_(r, conn) || peer_closed) {
    // An oversized length prefix cannot be resynchronized.  A peer that
    // finished sending ends the conversation: its replies have nowhere
    // to go, and a mid-frame disconnect leaves an unparseable stub that
    // must not leak.
    close_connection_(r, fd);
    return;
  }
  // One send for every reply this read produced inline.
  flush_write_(r, conn);
}

bool EventLoopServer::drain_read_buffer_(Reactor& r, Connection& conn) {
  std::size_t off = 0;
  while (conn.in_flight < options_.max_pipeline &&
         conn.read_buf.size() - off >= 4) {
    const std::uint8_t* p = conn.read_buf.data() + off;
    const std::uint32_t len = (std::uint32_t{p[0]} << 24) |
                              (std::uint32_t{p[1]} << 16) |
                              (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
    if (len > kMaxFrameBytes) return false;
    if (conn.read_buf.size() - off < 4 + std::size_t{len}) break;
    wire::Decoder dec(util::BytesView(p + 4, len));
    Envelope request = decode_envelope(dec);
    off += 4 + len;
    const std::uint64_t seq = conn.next_assign_seq++;
    conn.in_flight += 1;

    if (!dec.finish().is_ok()) {
      // Framed garbage: the stream itself is intact, so answer in-slot
      // and keep serving.
      release_(conn, seq,
               encode_reply_frame(make_error_reply(
                   request, util::fail(ErrorCode::kParseError,
                                       "malformed envelope"))));
      continue;
    }
    auto it = nodes_.find(request.to);
    if (it == nodes_.end()) {
      release_(conn, seq,
               encode_reply_frame(make_error_reply(
                   request, util::fail(ErrorCode::kNotFound,
                                       "no node '" + request.to +
                                           "' here"))));
      continue;
    }
    Node& node = *it->second;
    if (!node.may_block(request.type)) {
      // Cheaper to run here than to hand off: no worker wake, no
      // completion wake, and the reply leaves with this read's flush.
      release_(conn, seq, serve(node, request));
      continue;
    }
    {
      std::lock_guard lock(tasks_mutex_);
      tasks_.push_back(
          Task{&r, conn.fd, conn.id, seq, &node, std::move(request)});
    }
    // One wake per pooled frame, sent at once so the worker overlaps
    // whatever this read still runs inline.  Workers re-check the queue
    // under the lock before they wait, so a signal that finds no waiter
    // loses no task.
    tasks_cv_.notify_one();
  }
  if (off > 0) {
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<std::ptrdiff_t>(off));
  }
  // Backpressure: at the cap, stop reading until replies drain.  Bytes
  // already received stay in read_buf; the kernel buffer and then the
  // peer absorb the rest.
  const bool pause = conn.in_flight >= options_.max_pipeline;
  if (pause != conn.reading_paused) {
    conn.reading_paused = pause;
    update_epoll_(r, conn);
  }
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
    Completion done{task.fd, task.conn_id, task.seq,
                    serve(*task.node, task.request)};
    post_(*task.owner, [&done](Inbox& inbox) {
      inbox.completions.push_back(std::move(done));
    });
  }
}

void EventLoopServer::drain_inbox_(Reactor& r) {
  {
    // Take the WHOLE inbox: the coalesced wake relies on it.  Once this
    // swap empties the inbox, the next push is again the first and
    // writes the eventfd; a bounded drain would leave entries behind
    // with no write to come for them.
    std::lock_guard lock(r.inbox_mutex);
    std::swap(r.draining, r.inbox);
  }
  for (const int fd : r.draining.accepted) adopt_(r, fd);
  std::vector<Connection*> touched;
  for (Completion& done : r.draining.completions) {
    auto it = r.conns.find(done.fd);
    // The connection may be gone — or the fd reused by a NEW connection;
    // the generation tag tells them apart.
    if (it == r.conns.end() || it->second->id != done.conn_id) continue;
    Connection& conn = *it->second;
    release_(conn, done.seq, std::move(done.reply_frame));
    if (!conn.touched) {
      conn.touched = true;
      touched.push_back(&conn);
    }
  }
  // Swapped back on the next drain with its capacity kept.
  r.draining.accepted.clear();
  r.draining.completions.clear();
  // Closing one connection below never frees another, so the pointers
  // stay valid.
  for (Connection* conn : touched) {
    conn->touched = false;
    // Frames may already be buffered past a pause point.
    if (conn->reading_paused && !drain_read_buffer_(r, *conn)) {
      close_connection_(r, conn->fd);
      continue;
    }
    flush_write_(r, *conn);
  }
}

void EventLoopServer::release_(Connection& conn, std::uint64_t seq,
                               util::Bytes frame) {
  // Replies go out strictly in request order: a reply that finished
  // before an earlier pooled frame parks until its predecessors are done.
  if (seq != conn.next_reply_seq) {
    conn.held_replies.emplace(seq, std::move(frame));
    return;
  }
  const auto append = [&conn](util::Bytes& reply) {
    if (conn.write_buf.empty()) {
      conn.write_buf = std::move(reply);
    } else {
      conn.write_buf.insert(conn.write_buf.end(), reply.begin(),
                            reply.end());
    }
    conn.next_reply_seq += 1;
    conn.in_flight -= 1;
  };
  append(frame);
  std::uint64_t released = 1;
  auto next = conn.held_replies.begin();
  while (next != conn.held_replies.end() &&
         next->first == conn.next_reply_seq) {
    append(next->second);
    next = conn.held_replies.erase(next);
    released += 1;
  }
  served_.fetch_add(released);
}

void EventLoopServer::flush_write_(Reactor& r, Connection& conn) {
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
        update_epoll_(r, conn);
      }
      return;
    }
    close_connection_(r, fd);
    return;
  }
  conn.write_buf.clear();
  conn.write_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll_(r, conn);
  }
}

void EventLoopServer::update_epoll_(Reactor& r, Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.reading_paused ? 0u : std::uint32_t{EPOLLIN}) |
              (conn.want_write ? std::uint32_t{EPOLLOUT} : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void EventLoopServer::close_connection_(Reactor& r, int fd) {
  auto it = r.conns.find(fd);
  if (it == r.conns.end()) return;
  ::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  r.conns.erase(it);
  active_.fetch_sub(1);
}

void EventLoopServer::scan_idle_(Reactor& r, std::uint64_t now_us) {
  const auto limit = static_cast<std::uint64_t>(options_.idle_timeout);
  std::vector<int> victims;
  for (const auto& [fd, conn] : r.conns) {
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
    close_connection_(r, fd);
  }
}

}  // namespace rproxy::net
