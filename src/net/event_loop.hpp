// Epoll-based server transport: the one way this library serves
// net::Node objects over TCP.
//
// `Options::workers` reactor threads own the sockets (nonblocking,
// epoll-driven, incremental frame parsing into per-connection buffers),
// and a shared pool of as many handler threads runs the handlers that may
// block.  Many frames can be in flight per connection — pipelining — and
// replies leave strictly in request order, so clients match the k-th
// reply to the k-th request without tags (see DESIGN.md §5b for the wire
// contract).
//
// Threading rules, which keep the design small:
//   * One reactor owns the listener and deals accepted connections to the
//     reactors round-robin (itself included), through the target's inbox
//     and eventfd.  From then on that reactor is the only thread that
//     touches the connection's socket, buffers and epoll state.
//   * A reactor decodes each frame's envelope.  It answers a malformed
//     envelope or an unknown node in the frame's slot itself.  When the
//     target node says the handler cannot block
//     (`Node::may_block(type)` is false), the reactor runs it inline and
//     queues the reply at once: no handoff, no wake.
//   * Every other frame goes to the pool with its decoded envelope.  A
//     worker runs Node::handle() (handlers are thread-safe), encodes the
//     reply and pushes a completion into the owning reactor's inbox.
//   * Wake only threads that have work: a reactor signals one worker per
//     pooled frame (notify_one), and a push writes a reactor's eventfd
//     only when it lands in an empty inbox.  The reactor takes the whole
//     inbox per wake, which is what makes that safe.  Reads stop at a
//     short recv; epoll stays level-triggered, so later bytes raise a
//     fresh event.
//   * Backpressure: at `max_pipeline` frames without a reply the
//     connection's EPOLLIN is paused — the kernel receive buffer, then
//     the client, absorb the overflow.
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
/// requests from epoll reactors plus a pool for handlers that may block.
class EventLoopServer {
 public:
  struct Options {
    /// Bounds CONCURRENT HANDLER WORK, not connections (thousands of idle
    /// sockets cost one epoll entry each).  It sizes both the reactors,
    /// which run the handlers that cannot block, and the pool, which runs
    /// the rest.  One reactor per worker rather than per core: a reactor
    /// serves its connections one frame at a time, and sequential clients
    /// that share a reactor queue behind each other.
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

  /// Binds 127.0.0.1 on an ephemeral port, starts the reactors and the
  /// worker pool.
  [[nodiscard]] util::Status start();

  /// The bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Stops the reactors, drains the workers, closes every connection.
  void stop();

  /// Requests served (replies queued for writing) so far.
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
  /// All mutable per-connection state, owned by one reactor thread.
  /// Workers never touch it: they carry fd + id + seq and the reactor
  /// re-resolves the connection, which may be gone.
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
    /// Replies that finished before an earlier pooled frame, parked until
    /// their turn.
    std::map<std::uint64_t, util::Bytes> held_replies;
    std::size_t in_flight = 0;  ///< frames parsed, reply not yet queued
    std::uint64_t last_activity = 0;  ///< monotonic µs of last readable
    bool want_write = false;     ///< EPOLLOUT currently armed
    bool reading_paused = false;  ///< EPOLLIN dropped at max_pipeline
    bool touched = false;  ///< has replies from this inbox drain
  };

  struct Reactor;

  /// A frame on its way to a pool worker.
  struct Task {
    Reactor* owner = nullptr;
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    Node* node = nullptr;
    Envelope request;
  };

  /// An encoded reply frame on its way back to its reactor.
  struct Completion {
    int fd = -1;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    util::Bytes reply_frame;  ///< length prefix included
  };

  /// What other threads hand a reactor; one eventfd write per burst.
  struct Inbox {
    std::vector<Completion> completions;
    std::vector<int> accepted;  ///< fds dealt by the listening reactor
    [[nodiscard]] bool empty() const {
      return completions.empty() && accepted.empty();
    }
  };

  struct Reactor {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: inbox pushes -> this reactor
    /// Reactor-owned: every open connection, keyed by fd.
    std::map<int, std::unique_ptr<Connection>> conns;
    std::uint64_t next_conn_id = 1;  ///< reactor-owned generation counter
    std::mutex inbox_mutex;
    Inbox inbox;     ///< guarded by inbox_mutex
    Inbox draining;  ///< reactor-owned: the inbox taken by the last wake
    std::thread thread;  ///< runs reactor_loop_; joined by stop()
  };

  void reactor_loop_(Reactor& r);
  void worker_loop_();
  void accept_new_(Reactor& r);
  void adopt_(Reactor& r, int fd);
  /// Runs `push` on `r`'s inbox, writing its eventfd if the inbox was
  /// empty.
  template <typename Push>
  void post_(Reactor& r, Push&& push);
  void drain_inbox_(Reactor& r);
  void on_readable_(Reactor& r, Connection& conn);
  /// Parses complete frames out of read_buf: runs the inline ones, queues
  /// the rest.  Returns false if the connection must be closed (oversized
  /// frame).
  [[nodiscard]] bool drain_read_buffer_(Reactor& r, Connection& conn);
  /// Queues seq's reply and releases the in-order prefix.
  void release_(Connection& conn, std::uint64_t seq, util::Bytes frame);
  void flush_write_(Reactor& r, Connection& conn);
  void update_epoll_(Reactor& r, Connection& conn);
  void close_connection_(Reactor& r, int fd);
  void scan_idle_(Reactor& r, std::uint64_t now_us);

  std::map<NodeId, Node*> nodes_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_deal_ = 0;  ///< owned by the listening reactor
  std::vector<std::thread> workers_;

  /// Reactors -> pool.
  std::mutex tasks_mutex_;
  std::condition_variable tasks_cv_;
  std::deque<Task> tasks_;
  bool stopping_ = false;  ///< guarded by tasks_mutex_

  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::uint64_t> idle_closed_{0};
};

}  // namespace rproxy::net
