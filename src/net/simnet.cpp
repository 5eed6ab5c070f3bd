#include "net/simnet.hpp"

namespace rproxy::net {

void SimNet::attach(NodeId id, Node& node) {
  std::lock_guard lock(mutex_);
  nodes_[std::move(id)] = &node;
}

void SimNet::detach(const NodeId& id) {
  std::lock_guard lock(mutex_);
  nodes_.erase(id);
}

void SimNet::add_tap(Tap& tap) {
  std::lock_guard lock(mutex_);
  taps_.push_back(&tap);
}

void SimNet::clear_taps() {
  std::lock_guard lock(mutex_);
  taps_.clear();
}

void SimNet::set_default_latency(util::Duration oneway) {
  std::lock_guard lock(mutex_);
  default_latency_ = oneway;
}

util::Duration SimNet::latency_(const NodeId& a, const NodeId& b) const {
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (auto it = link_latency_.find(key); it != link_latency_.end()) {
    return it->second;
  }
  return default_latency_;
}

void SimNet::set_link_latency(const NodeId& a, const NodeId& b,
                              util::Duration oneway) {
  std::lock_guard lock(mutex_);
  auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  link_latency_[key] = oneway;
}

Envelope SimNet::deliver_(Envelope e) {
  for (Tap* tap : taps_) {
    if (auto rewritten = tap->rewrite(e)) e = std::move(*rewritten);
  }
  for (Tap* tap : taps_) tap->on_message(e);
  stats_.messages += 1;
  stats_.bytes += e.wire_size();
  const util::Duration lat = latency_(e.from, e.to);
  stats_.simulated_latency += lat;
  clock_.advance(lat);
  return e;
}

void SimNet::fail_link(const NodeId& a, const NodeId& b) {
  std::lock_guard lock(mutex_);
  failed_links_.insert(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
}

void SimNet::restore_link(const NodeId& a, const NodeId& b) {
  std::lock_guard lock(mutex_);
  failed_links_.erase(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
}

void SimNet::set_fault_plan(FaultPlan plan) {
  std::lock_guard lock(mutex_);
  injector_ = std::make_unique<FaultInjector>(std::move(plan));
}

void SimNet::clear_fault_plan() {
  std::lock_guard lock(mutex_);
  injector_.reset();
}

bool SimNet::fault_plan_active() const {
  std::lock_guard lock(mutex_);
  return injector_ != nullptr;
}

NetStats SimNet::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void SimNet::reset_stats() {
  std::lock_guard lock(mutex_);
  stats_.reset();
}

void SimNet::open_unreachable_window(const NodeId& a, const NodeId& b,
                                     util::Duration duration) {
  std::lock_guard lock(mutex_);
  if (injector_ == nullptr) {
    injector_ = std::make_unique<FaultInjector>(FaultPlan{});
  }
  injector_->open_window(a, b, clock_.now(), duration);
}

util::Result<Envelope> SimNet::rpc(Envelope request) {
  // The lock covers the net's own state only and is released across every
  // handle(): round trips from different threads run their handlers in
  // parallel, and a handler's nested rpc() takes the lock afresh.  The
  // dice are rolled at the same points as ever, so a single-threaded run
  // replays its seed.
  std::unique_lock lock(mutex_);
  const NodeId from = request.from;
  const NodeId to = request.to;
  if (failed_links_.contains(from < to ? std::make_pair(from, to)
                                       : std::make_pair(to, from))) {
    return util::fail(util::ErrorCode::kUnavailable,
                      "link " + from + " <-> " + to + " is down");
  }

  FaultDecision fault;
  if (injector_ != nullptr) {
    if (injector_->in_window(from, to, clock_.now())) {
      stats_.faults_unreachable += 1;
      return util::fail(util::ErrorCode::kUnavailable,
                        "link " + from + " <-> " + to +
                            " transiently unreachable");
    }
    fault = injector_->roll(from, to);
    if (fault.unreachable) {
      injector_->open_window(from, to, clock_.now());
      stats_.faults_unreachable += 1;
      return util::fail(util::ErrorCode::kUnavailable,
                        "link " + from + " <-> " + to +
                            " transiently unreachable");
    }
    if (fault.extra_delay > 0) {
      stats_.faults_extra_delays += 1;
      stats_.simulated_latency += fault.extra_delay;
      clock_.advance(fault.extra_delay);
    }
  }

  if (fault.drop_request) {
    // The request went onto the wire (taps see it, latency is charged) and
    // vanished; the handler never runs.
    (void)deliver_(std::move(request));
    stats_.faults_dropped_requests += 1;
    return util::fail(util::ErrorCode::kTimeout,
                      "request " + from + " -> " + to + " lost in transit");
  }

  const Envelope delivered = deliver_(std::move(request));
  auto it = nodes_.find(delivered.to);
  if (it == nodes_.end()) {
    return util::fail(util::ErrorCode::kNotFound,
                      "no node attached as '" + delivered.to + "'");
  }
  stats_.rpcs += 1;
  Node* node = it->second;
  lock.unlock();
  Envelope reply = node->handle(delivered);
  lock.lock();

  if (fault.duplicate) {
    // A network duplicate: the handler runs again on a verbatim copy; the
    // duplicate's reply is discarded the way a late duplicate's would be.
    // Idempotent handlers must make this a no-op (dedup tables).
    stats_.faults_duplicated += 1;
    const Envelope dup = deliver_(Envelope(delivered));
    if (auto dup_it = nodes_.find(dup.to); dup_it != nodes_.end()) {
      Node* dup_node = dup_it->second;
      lock.unlock();
      (void)dup_node->handle(dup);
      lock.lock();
    }
  }

  reply.from = delivered.to;
  reply.to = delivered.from;

  if (fault.drop_reply) {
    // The handler ran — state changed — but the caller never learns; this
    // is the case that forces retries plus idempotency.
    (void)deliver_(std::move(reply));
    stats_.faults_dropped_replies += 1;
    return util::fail(util::ErrorCode::kTimeout,
                      "reply " + to + " -> " + from + " lost in transit");
  }
  return deliver_(std::move(reply));
}

util::Result<Envelope> SimNet::rpc(const NodeId& from, const NodeId& to,
                                   MsgType type, util::Bytes payload) {
  Envelope e;
  e.from = from;
  e.to = to;
  e.type = type;
  e.payload = std::move(payload);
  return rpc(std::move(e));
}

}  // namespace rproxy::net
