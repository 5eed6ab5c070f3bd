#include "driver/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "driver/util.hpp"
#include "net/tcp_transport.hpp"

namespace e2e {

namespace {

/// Time is cut into slices of this length; each gets the host's steal time
/// over it, so quiet slices can be told from disturbed ones.
constexpr std::int64_t kSliceNs = 250'000'000;
constexpr auto kStealSamplePeriod = std::chrono::milliseconds(10);

/// Host steal time (jiffies, all CPUs) from /proc/stat; 0 where the
/// kernel does not report it.
double read_steal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0;
  double steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) steal = field;  // 8th field
  return cpu == "cpu" ? steal : 0;
}

/// Samples steal time on its own thread while a phase runs.
class StealSampler {
 public:
  StealSampler() : thread_([this] { loop_(); }) {}
  ~StealSampler() { stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void stop() {
    running_ = false;
    if (thread_.joinable()) thread_.join();
  }
  /// CPU time the sampling thread used.  Call after stop().
  [[nodiscard]] double cpu_s() const { return cpu_s_; }
  /// Steal accrued in [from_ns, to_ns), from the samples bracketing it.
  /// Call after stop().
  [[nodiscard]] double between(std::int64_t from_ns, std::int64_t to_ns) const {
    const auto at = [this](std::int64_t t) {
      auto it = std::upper_bound(
          samples_.begin(), samples_.end(), t,
          [](std::int64_t v, const auto& sample) { return v < sample.first; });
      if (it != samples_.begin()) --it;
      return it == samples_.end() ? 0.0 : it->second;
    };
    return at(to_ns) - at(from_ns);
  }

 private:
  void loop_() {
    const double cpu0 = thread_cpu_s();
    while (running_.load()) {
      samples_.emplace_back(now_ns(), read_steal());
      std::this_thread::sleep_for(kStealSamplePeriod);
    }
    samples_.emplace_back(now_ns(), read_steal());
    cpu_s_ = thread_cpu_s() - cpu0;
  }

  std::atomic<bool> running_{true};
  std::vector<std::pair<std::int64_t, double>> samples_;  ///< loop_ only
  double cpu_s_ = 0;  ///< loop_ only
  std::thread thread_;
};

/// Per-op bookkeeping; each op is touched only by its connection's thread.
struct OpRecord {
  std::int64_t start_ns = 0;  ///< due time (open) or first send (closed)
  std::int64_t done_ns = 0;
  std::uint64_t span_id = 0;
  bool started = false;
  bool done = false;
  bool ok = false;
};

struct Pending {
  std::size_t op = 0;
  int step = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t key = 0;
};

struct Conn {
  int fd = -1;
  std::vector<std::size_t> ops;  ///< this connection's share, in order
  std::size_t next = 0;          ///< next op to start
  std::size_t active = 0;        ///< started, not finished
  std::deque<Pending> pending;   ///< requests awaiting replies, in order
  rp::util::Bytes rbuf;
  std::size_t rpos = 0;
  bool dead = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the front server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const rp::util::Bytes& frame) {
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// One driver thread: its connections, its share of the ops, its counters.
class DriverThread {
 public:
  DriverThread(Workload& workload, const PhaseConfig& config,
               std::vector<OpRecord>& records, std::int64_t t0)
      : w_(workload), cfg_(config), rec_(records), t0_(t0) {}

  void add_connection(Conn conn) { conns_.push_back(std::move(conn)); }
  void run();

  std::vector<double> lag_us;
  std::uint64_t rpcs = 0;
  std::uint64_t bytes = 0;
  /// The thread's CPU time, from its start to the end of run().
  double cpu_s = 0;
  /// Closed loop: when one of this thread's connections ran out of ops.
  std::int64_t exhausted_ns = 0;

 private:
  [[nodiscard]] std::int64_t due_(std::size_t op) const {
    return t0_ + (*cfg_.due_ns)[op] - cfg_.due_offset_ns;
  }
  void start_op_(Conn& conn, std::int64_t now);
  void send_(Conn& conn, std::size_t op, int step, const Request& request);
  void read_(Conn& conn);
  void on_reply_(Conn& conn, const rp::net::Envelope& reply);
  void finish_(Conn& conn, std::size_t op, bool ok);
  void fail_pending_(Conn& conn);

  Workload& w_;
  const PhaseConfig& cfg_;
  std::vector<OpRecord>& rec_;
  const std::int64_t t0_;
  std::vector<Conn> conns_;
};

void DriverThread::send_(Conn& conn, std::size_t op, int step,
                         const Request& request) {
  const std::int64_t now = now_ns();
  conn.pending.push_back(Pending{op, step, now, request.key});
  rpcs += 1;
  bytes += request.frame.size();
  if (!send_all(conn.fd, request.frame)) fail_pending_(conn);
}

void DriverThread::start_op_(Conn& conn, std::int64_t now) {
  const std::size_t op = conn.ops[conn.next++];
  OpRecord& r = rec_[op];
  r.started = true;
  if (cfg_.phase == Phase::kOpen) {
    r.start_ns = due_(op);
    lag_us.push_back(static_cast<double>(now - r.start_ns) / 1e3);
  } else {
    r.start_ns = now;
  }
  if (cfg_.tracer != nullptr) r.span_id = cfg_.tracer->next_id();
  conn.active += 1;
  if (conn.dead) {
    finish_(conn, op, false);
    return;
  }
  send_(conn, op, 0, w_.first_request(cfg_.phase, op));
}

void DriverThread::finish_(Conn& conn, std::size_t op, bool ok) {
  OpRecord& r = rec_[op];
  r.done = true;
  r.ok = ok;
  r.done_ns = now_ns();
  conn.active -= 1;
  if (cfg_.tracer != nullptr) {
    Span span;
    span.id = r.span_id;
    span.name = SpanName::kDriverOp;
    span.start_ns = r.start_ns;
    span.end_ns = r.done_ns;
    span.error = !ok;
    cfg_.tracer->record(span);
  }
}

void DriverThread::fail_pending_(Conn& conn) {
  conn.dead = true;
  while (!conn.pending.empty()) {
    const Pending p = conn.pending.front();
    conn.pending.pop_front();
    finish_(conn, p.op, false);
  }
}

void DriverThread::on_reply_(Conn& conn, const rp::net::Envelope& reply) {
  if (conn.pending.empty()) {
    fail_pending_(conn);
    return;
  }
  const Pending p = conn.pending.front();
  conn.pending.pop_front();
  const bool error = reply.type == rp::net::MsgType::kError;
  if (cfg_.tracer != nullptr) {
    Span span;
    span.id = cfg_.tracer->next_id();
    span.parent = rec_[p.op].span_id;
    span.key = p.key;
    span.name = SpanName::kTcpRpc;
    span.start_ns = p.sent_ns;
    span.end_ns = now_ns();
    span.error = error;
    cfg_.tracer->record(span);
  }
  StepResult step = w_.on_reply(cfg_.phase, p.op, p.step, reply);
  if (step.done) {
    finish_(conn, p.op, step.ok);
  } else {
    send_(conn, p.op, p.step + 1, step.next);
  }
}

void DriverThread::read_(Conn& conn) {
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      bytes += static_cast<std::uint64_t>(n);
      conn.rbuf.insert(conn.rbuf.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_pending_(conn);  // closed or broken
    return;
  }
  while (conn.rbuf.size() - conn.rpos >= 4) {
    const std::uint8_t* h = conn.rbuf.data() + conn.rpos;
    const std::size_t len = (std::size_t{h[0]} << 24) |
                            (std::size_t{h[1]} << 16) |
                            (std::size_t{h[2]} << 8) | std::size_t{h[3]};
    if (len > rp::net::kMaxFrameBytes) {
      fail_pending_(conn);
      return;
    }
    if (conn.rbuf.size() - conn.rpos < 4 + len) break;
    rp::wire::Decoder dec(rp::util::BytesView(h + 4, len));
    rp::net::Envelope reply = rp::net::decode_envelope(dec);
    conn.rpos += 4 + len;
    if (!dec.finish().is_ok()) {
      fail_pending_(conn);
      return;
    }
    on_reply_(conn, reply);
    if (conn.dead) return;
  }
  conn.rbuf.erase(conn.rbuf.begin(),
                  conn.rbuf.begin() + static_cast<std::ptrdiff_t>(conn.rpos));
  conn.rpos = 0;
}

void DriverThread::run() {
  const bool closed = cfg_.phase == Phase::kClosed;
  const std::int64_t closed_end =
      t0_ + static_cast<std::int64_t>((cfg_.warmup_s + cfg_.seconds) * 1e9);
  const std::size_t per_conn_inflight =
      std::max<std::size_t>(1, cfg_.inflight / std::max(1u, cfg_.connections));
  std::int64_t drain_deadline = 0;
  std::vector<pollfd> pfds(conns_.size());

  while (true) {
    const std::int64_t now = now_ns();
    bool sending = false;
    bool busy = false;
    std::int64_t wake = now + 10'000'000;
    for (Conn& conn : conns_) {
      if (closed) {
        if (now < closed_end) {
          while (conn.active < per_conn_inflight &&
                 conn.next < conn.ops.size()) {
            start_op_(conn, now);
          }
          if (conn.next >= conn.ops.size()) {
            if (exhausted_ns == 0) exhausted_ns = now;
          } else {
            sending = true;
            wake = std::min(wake, closed_end);
          }
        }
      } else {
        while (conn.next < conn.ops.size() && due_(conn.ops[conn.next]) <= now) {
          start_op_(conn, now);
        }
        if (conn.next < conn.ops.size()) {
          sending = true;
          wake = std::min(wake, due_(conn.ops[conn.next]));
        }
      }
      busy = busy || !conn.pending.empty();
    }
    if (!sending && !busy) break;
    if (!sending) {
      if (drain_deadline == 0) {
        drain_deadline = now + static_cast<std::int64_t>(cfg_.drain_s * 1e9);
      }
      if (now > drain_deadline) {
        for (Conn& conn : conns_) fail_pending_(conn);
        break;
      }
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i] = pollfd{conns_[i].dead ? -1 : conns_[i].fd, POLLIN, 0};
    }
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents != 0 && !conns_[i].dead) read_(conns_[i]);
    }
  }
  for (Conn& conn : conns_) ::close(conn.fd);
}

}  // namespace

PhaseResult run_phase(Workload& workload, const PhaseConfig& config) {
  const bool closed = config.phase == Phase::kClosed;
  // The closed loop draws from its range in order until its time is up;
  // the open loop sends every op of its range.
  const std::size_t first = config.first_op;
  const std::size_t end =
      std::min(config.end_op, workload.pool_size(config.phase));
  std::vector<OpRecord> records(end);

  std::vector<Conn> conns(config.connections);
  for (std::size_t i = first; i < end; ++i) {
    conns[(i - first) % conns.size()].ops.push_back(i);
  }
  for (Conn& conn : conns) conn.fd = connect_loopback(config.port);

  PhaseResult result;
  // The sampler runs inside the process-CPU window, so its CPU, like the
  // driver threads', can be taken out of the program's.
  const double process_cpu0 = process_cpu_s();
  StealSampler steal;
  const std::int64_t t0 = now_ns() + 2'000'000;  // all threads start together
  std::vector<std::unique_ptr<DriverThread>> drivers;
  for (unsigned t = 0; t < config.threads; ++t) {
    drivers.push_back(
        std::make_unique<DriverThread>(workload, config, records, t0));
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    drivers[i % drivers.size()]->add_connection(std::move(conns[i]));
  }
  std::vector<std::thread> threads;
  for (auto& d : drivers) {
    threads.emplace_back([&d, t0] {
      const double cpu0 = thread_cpu_s();
      // Sub-microsecond timer slack keeps sends on schedule.
      ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      while (now_ns() < t0) std::this_thread::yield();
      d->run();
      d->cpu_s = thread_cpu_s() - cpu0;
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t t1 = now_ns();
  result.elapsed_s = static_cast<double>(t1 - t0) / 1e9;
  steal.stop();
  result.process_cpu_s = process_cpu_s() - process_cpu0;
  result.driver_cpu_s = steal.cpu_s();
  result.steal_jiffies = steal.between(t0, t1);
  const auto slice_steal = [&](std::int64_t lo) {
    return steal.between(lo, lo + kSliceNs);
  };

  for (auto& d : drivers) {
    result.driver_cpu_s += d->cpu_s;
    result.rpcs += d->rpcs;
    result.bytes += d->bytes;
    if (d->exhausted_ns != 0) {
      result.exhausted_ns = result.exhausted_ns == 0
                                ? d->exhausted_ns
                                : std::min(result.exhausted_ns, d->exhausted_ns);
    }
    result.lag_us.insert(result.lag_us.end(), d->lag_us.begin(),
                         d->lag_us.end());
  }

  // The closed loop's window runs from the end of the ramp until its time
  // is up or the first connection has sent its last op, whichever comes
  // first, cut into equal slices of at least 250 ms (one slice when it is
  // shorter).  A program so fast that the ramp took every op is measured
  // from the start.
  std::int64_t window_lo =
      t0 + static_cast<std::int64_t>(config.warmup_s * 1e9);
  std::int64_t window_hi =
      window_lo + static_cast<std::int64_t>(config.seconds * 1e9);
  if (result.exhausted_ns != 0) {
    window_hi = std::min(window_hi, result.exhausted_ns);
  }
  if (closed && window_hi - window_lo < kSliceNs / 5) window_lo = t0;
  std::vector<std::size_t> per_slice;
  std::int64_t slice_ns = kSliceNs;
  if (closed && window_hi > window_lo) {
    per_slice.resize(static_cast<std::size_t>(
        std::max<std::int64_t>(1, (window_hi - window_lo) / kSliceNs)));
    slice_ns = (window_hi - window_lo) /
               static_cast<std::int64_t>(per_slice.size());
  }
  for (std::size_t i = first; i < end; ++i) {
    const OpRecord& r = records[i];
    if (!r.started) continue;
    result.attempted += 1;
    if (r.ok) {
      result.ok += 1;
      if (is_write(workload.kind(config.phase, i))) result.ok_writes += 1;
    } else {
      result.failed += 1;
    }
    if (closed) {
      if (r.ok && r.done_ns >= window_lo) {
        const auto slice =
            static_cast<std::size_t>((r.done_ns - window_lo) / slice_ns);
        if (slice < per_slice.size()) per_slice[slice] += 1;
      }
    } else if (r.start_ns >= window_lo) {
      result.latency_us.push_back(
          r.ok ? static_cast<double>(r.done_ns - r.start_ns) / 1e3
               : kFailedLatency);
      result.latency_steal.push_back(slice_steal(
          window_lo + (r.start_ns - window_lo) / kSliceNs * kSliceNs));
      result.write_class.push_back(is_write(workload.kind(Phase::kOpen, i)));
    }
  }
  if (closed) {
    for (std::size_t k = 0; k < per_slice.size(); ++k) {
      const std::int64_t lo = window_lo + static_cast<std::int64_t>(k) * slice_ns;
      result.slice_ops_per_s.push_back(static_cast<double>(per_slice[k]) *
                                       1e9 / static_cast<double>(slice_ns));
      result.slice_steal.push_back(steal.between(lo, lo + slice_ns));
    }
    return result;
  }

  // Backlog (due but unfinished ops), sampled every 50 ms of the phase.
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> done;
  for (std::size_t i = first; i < end; ++i) {
    due.push_back((*config.due_ns)[i] - config.due_offset_ns);
    done.push_back(records[i].done ? records[i].done_ns - t0 : INT64_MAX);
  }
  std::sort(done.begin(), done.end());
  std::vector<double> backlog;
  for (std::int64_t t = 0; !due.empty() && t <= due.back(); t += 50'000'000) {
    const auto n_due = std::upper_bound(due.begin(), due.end(), t) - due.begin();
    const auto n_done =
        std::upper_bound(done.begin(), done.end(), t) - done.begin();
    backlog.push_back(static_cast<double>(n_due - n_done));
  }
  const std::size_t q = backlog.size() / 4;
  if (q > 0) {
    result.backlog_first =
        mean(std::vector<double>(backlog.begin(), backlog.begin() + q));
    result.backlog_last =
        mean(std::vector<double>(backlog.end() - q, backlog.end()));
  }
  return result;
}

}  // namespace e2e
