// Deterministic in-process network.
//
// Substitution for the paper's network of workstations (DESIGN.md §2): all
// parties register as Nodes; rpc() delivers a request and returns the reply
// synchronously, charging simulated latency on a shared SimClock and
// counting messages and bytes.  Handlers may themselves issue rpc() calls
// (an end-server contacting its accounting server, an intermediate server
// cascading a proxy), which nests naturally.  Handlers run outside the
// net's lock, so round trips made from different threads run
// concurrently; every Node must be thread-safe.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/adversary.hpp"
#include "net/fault.hpp"
#include "net/message.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace rproxy::net {

/// A protocol party.  Implementations: KDC, authorization server, group
/// server, accounting servers, end-servers, baseline servers.
class Node {
 public:
  virtual ~Node() = default;

  /// Handles one request and returns the reply envelope.  Protocol errors
  /// are returned as kError envelopes (via make_error_reply), NOT as
  /// C++ exceptions — a remote peer cannot throw across the wire.
  [[nodiscard]] virtual Envelope handle(const Envelope& request) = 0;

  /// Whether handle() may wait for a request of `type`: on another
  /// thread, on storage, or on a nested round trip.  A transport runs a
  /// handler that cannot block on the thread that read the request
  /// (EventLoopServer's reactors) and the rest on a worker pool.  The
  /// answer may change at run time.  A handler answered `false` that
  /// does wait stalls the other connections of its reactor meanwhile,
  /// so what it waits for must never need that reactor.  SimNet ignores
  /// it.
  [[nodiscard]] virtual bool may_block(MsgType /*type*/) const {
    return true;
  }
};

/// Cumulative traffic counters; benches report these alongside time, since
/// message counts are the paper's own cost model.
struct NetStats {
  std::uint64_t messages = 0;   ///< envelopes delivered (requests + replies)
  std::uint64_t bytes = 0;      ///< sum of wire_size() over envelopes
  std::uint64_t rpcs = 0;       ///< request/reply round trips
  util::Duration simulated_latency = 0;  ///< total latency charged

  // Fault-injection counters (see FaultPlan); all zero without a plan.
  std::uint64_t faults_dropped_requests = 0;  ///< requests lost in transit
  std::uint64_t faults_dropped_replies = 0;   ///< replies lost after handling
  std::uint64_t faults_duplicated = 0;        ///< requests delivered twice
  std::uint64_t faults_extra_delays = 0;      ///< rpcs charged extra delay
  std::uint64_t faults_unreachable = 0;  ///< rpcs bounced off a transient
                                         ///< unreachable window

  [[nodiscard]] std::uint64_t faults_total() const {
    return faults_dropped_requests + faults_dropped_replies +
           faults_duplicated + faults_extra_delays + faults_unreachable;
  }

  void reset() { *this = NetStats{}; }
};

class SimNet {
 public:
  /// The net charges latency against `clock` (advance on every delivery).
  explicit SimNet(util::SimClock& clock) : clock_(clock) {}

  SimNet(const SimNet&) = delete;
  SimNet& operator=(const SimNet&) = delete;

  /// Registers a node.  The node must outlive the net: a handler call may
  /// still be running on it after it is replaced or detached.
  /// Re-registering a name replaces the previous binding (used to restart
  /// servers in tests).
  void attach(NodeId id, Node& node);

  /// Removes a node (simulates a crashed/unreachable party).  Later rpc()
  /// calls fail kNotFound, but a handler already running on the node may
  /// finish after detach() returns.
  void detach(const NodeId& id);

  /// One round trip: delivers `request` to its destination, returns the
  /// reply.  Fails with kNotFound if the destination is not attached,
  /// kUnavailable if the link is cut or inside a transient window, and
  /// kTimeout when the installed fault plan dropped the request or reply.
  /// Latency: one link delay each way.
  [[nodiscard]] util::Result<Envelope> rpc(Envelope request);

  /// Convenience: builds the envelope and performs the round trip.
  [[nodiscard]] util::Result<Envelope> rpc(const NodeId& from,
                                           const NodeId& to, MsgType type,
                                           util::Bytes payload);

  /// Replays a previously captured envelope verbatim (adversary action).
  [[nodiscard]] util::Result<Envelope> inject(const Envelope& captured) {
    return rpc(captured);
  }

  /// Installs an adversary tap; taps see all traffic in installation order.
  void add_tap(Tap& tap);
  void clear_taps();

  /// One-way link delay between any two nodes (default 500us ~ a 1993 LAN
  /// round trip of 1ms).  Per-pair overrides model WAN links to remote
  /// accounting servers etc.
  void set_default_latency(util::Duration oneway);
  void set_link_latency(const NodeId& a, const NodeId& b,
                        util::Duration oneway);

  /// Cuts (or restores) the link between two nodes: rpcs over a failed
  /// link return kUnavailable (distinct from kNotFound's "node never
  /// attached", so callers can tell a typo from an outage).  Models hard
  /// partitions for failure-injection tests (e.g. a clearing chain whose
  /// upstream bank is down must bounce, not double-credit).
  void fail_link(const NodeId& a, const NodeId& b);
  void restore_link(const NodeId& a, const NodeId& b);

  /// Installs a seeded fault plan (replacing any previous one; open
  /// transient windows are dropped).  Every subsequent rpc rolls the
  /// plan's per-link dice: dropped requests/replies surface as kTimeout,
  /// transient windows as kUnavailable, duplicates invoke the destination
  /// handler twice, and extra delay is charged to the clock.  Counters
  /// land in NetStats.
  void set_fault_plan(FaultPlan plan);
  void clear_fault_plan();
  [[nodiscard]] bool fault_plan_active() const;

  /// Scripted transient outage: opens an unreachable window over (a, b)
  /// for `duration` of simulated time, independent of any plan
  /// probabilities.  Used by tests that need a deterministic window.
  void open_unreachable_window(const NodeId& a, const NodeId& b,
                               util::Duration duration);

  /// A consistent copy of the counters (rpc() updates them from any
  /// thread).
  [[nodiscard]] NetStats stats() const;
  void reset_stats();

  [[nodiscard]] util::SimClock& clock() { return clock_; }

 private:
  [[nodiscard]] util::Duration latency_(const NodeId& a,
                                        const NodeId& b) const;
  /// Runs taps and counters for one envelope hop (mutex_ held).
  Envelope deliver_(Envelope e);

  /// Guards the net's own state: node table, taps, links, latencies, the
  /// fault injector and stats.  Never held across Node::handle(), so
  /// nothing re-enters it.
  mutable std::mutex mutex_;
  util::SimClock& clock_;
  std::map<NodeId, Node*> nodes_;
  std::vector<Tap*> taps_;
  util::Duration default_latency_ = 500 * util::kMicrosecond;
  std::map<std::pair<NodeId, NodeId>, util::Duration> link_latency_;
  std::set<std::pair<NodeId, NodeId>> failed_links_;
  /// Present only while a fault plan is installed.
  std::unique_ptr<FaultInjector> injector_;
  NetStats stats_;
};

}  // namespace rproxy::net
