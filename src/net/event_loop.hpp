// Epoll-based event-loop transport.
//
// The thread-pool TcpServer dedicates one blocking worker to each live
// connection, so a connection can only have ONE request in flight and
// idle connections pin workers.  EventLoopServer decouples the two: a
// single reactor thread owns every socket (nonblocking, epoll-driven,
// incremental frame parsing into per-connection buffers) and a small
// worker pool runs the Node handlers.  Many frames can be in flight per
// connection — pipelining — and replies are released strictly in request
// order through a per-connection reorder buffer, so clients match the
// k-th reply to the k-th request without tags (see DESIGN.md
// "Concurrency model" for the wire contract).
//
// Serving the SAME net::Node objects behind the same framing as
// TcpServer makes the two A/B-selectable: every protocol test and bench
// can run against either transport unchanged (bench_t11_event_loop
// measures the spread).
//
// Threading rules, which keep the design small:
//   * The reactor thread is the only thread that touches sockets,
//     buffers, epoll state and per-connection bookkeeping.
//   * Workers only decode a frame, run Node::handle() (handlers are
//     thread-safe, as with TcpServer), encode the reply, and push a
//     completion; an eventfd wakes the reactor to write it out.
//   * Wake only threads that have work: the reactor signals one worker
//     per queued frame (notify_one), and a worker writes the eventfd only
//     when its completion lands in an empty queue.  The reactor takes the
//     whole completion queue per wake, which is what makes that safe.
//     Reads stop at a short recv; epoll stays level-triggered, so later
//     bytes raise a fresh event.
//   * Backpressure: past `max_pipeline` undecided frames the connection's
//     EPOLLIN is paused — the kernel receive buffer, then the client,
//     absorb the overflow.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/message.hpp"
#include "net/simnet.hpp"
#include "util/clock.hpp"

namespace rproxy::net {

/// Hosts Nodes behind a TCP listener, serving concurrent pipelined
/// requests from an epoll reactor plus a handler worker pool.  Same
/// attach/start/port/stop surface as TcpServer so tests and benches can
/// switch transports with one line.
class EventLoopServer {
 public:
  struct Options {
    /// Handler threads.  Unlike TcpServer's pool this does NOT bound
    /// connections — thousands of idle sockets cost one epoll entry each
    /// — it bounds CONCURRENT HANDLER WORK.
    std::size_t workers = 8;
    /// Close a connection with no complete frame and nothing in flight
    /// after this long (wall-clock microseconds; 0 disables).  This is
    /// the slow-loris guard: a peer dribbling header bytes holds only
    /// buffer space, and only until this deadline.
    util::Duration idle_timeout = 0;
    /// Per-connection cap on frames admitted but not yet replied.  At the
    /// cap the reactor stops reading from that socket until replies
    /// drain, so one aggressive pipeliner cannot queue unbounded work.
    std::size_t max_pipeline = 128;
  };

  EventLoopServer() = default;
  explicit EventLoopServer(Options options) : options_(options) {}
  ~EventLoopServer();
  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Registers a node (must outlive the server; attach before start()).
  void attach(NodeId id, Node& node);

  /// Binds 127.0.0.1 on an ephemeral port, starts the reactor and the
  /// worker pool.
  [[nodiscard]] util::Status start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stops the reactor, drains the workers, closes every connection.
  void stop();

  /// Requests served (replies written) so far.
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load();
  }

  /// Open connections right now.
  [[nodiscard]] std::size_t active_connections() const {
    return active_.load();
  }

  /// Connections closed by the idle (slow-loris) guard.
  [[nodiscard]] std::uint64_t idle_closed() const {
    return idle_closed_.load();
  }

 private:
  /// All mutable per-connection state.  Owned by the reactor thread;
  /// workers never touch it (they carry fd + seq through the queues and
  /// the reactor re-resolves the connection, which may be gone).
  struct Connection {
    int fd = -1;
    /// Generation tag: the kernel reuses fd numbers, so a completion for
    /// a closed connection must not land on its fd's next tenant.
    std::uint64_t id = 0;
    util::Bytes read_buf;        ///< unparsed inbound bytes
    util::Bytes write_buf;       ///< encoded reply frames awaiting send
    std::size_t write_off = 0;   ///< sent prefix of write_buf
    std::uint64_t next_assign_seq = 0;  ///< seq for the next parsed frame
    std::uint64_t next_reply_seq = 0;   ///< seq whose reply goes out next
    /// Replies that arrived out of order, parked until their turn.
    std::map<std::uint64_t, util::Bytes> held_replies;
    std::size_t in_flight = 0;  ///< frames parsed, reply not yet queued
    std::uint64_t last_activity = 0;  ///< monotonic µs of last readable
    bool want_write = false;     ///< EPOLLOUT currently armed
    bool reading_paused = false;  ///< EPOLLIN dropped at max_pipeline
  };

  /// A parsed frame on its way to a worker.
  struct Task {
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    util::Bytes frame;
  };

  /// An encoded reply frame on its way back to the reactor.
  struct Completion {
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    util::Bytes reply_frame;  ///< length prefix included
  };

  void reactor_loop_();
  void worker_loop_();
  void on_readable_(Connection& conn);
  void on_writable_(Connection& conn);
  /// Parses complete frames out of read_buf into tasks.  Returns false if
  /// the connection must be closed (oversized frame).
  [[nodiscard]] bool drain_read_buffer_(Connection& conn);
  void queue_reply_(Connection& conn, std::uint64_t seq, util::Bytes frame);
  void flush_write_(Connection& conn);
  void update_epoll_(Connection& conn);
  void close_connection_(int fd);
  void accept_new_();
  void drain_completions_();
  void scan_idle_(std::uint64_t now_us);

  std::map<NodeId, Node*> nodes_;
  Options options_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: workers -> reactor
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread reactor_;
  std::vector<std::thread> workers_;

  /// Reactor-owned: every open connection, keyed by fd.
  std::map<int, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;  ///< reactor-owned generation counter

  /// Reactor -> workers.
  std::mutex tasks_mutex_;
  std::condition_variable tasks_cv_;
  std::deque<Task> tasks_;
  bool stopping_ = false;  ///< guarded by tasks_mutex_

  /// Workers -> reactor (reactor woken via wake_fd_).
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
};

}  // namespace rproxy::net
