#include "accounting/replication/standby.hpp"

#include <algorithm>

#include "net/rpc.hpp"
#include "util/rng.hpp"

namespace rproxy::accounting::replication {

using util::ErrorCode;

StandbyReplayer::StandbyReplayer(Config config)
    : config_(std::move(config)), jitter_(0), epoch_(config_.epoch) {
  if (config_.jitter_max > 0) {
    jitter_ = util::Rng(config_.jitter_seed).range(0, config_.jitter_max);
  }
  // Durable watermark resume: a restarted standby whose server recovered
  // its own journal (kReplApply frames carry source + source LSN) picks
  // up shipping exactly where it left off — no snapshot re-bootstrap.
  if (config_.server != nullptr) {
    const std::uint64_t mark =
        config_.server->replication_watermark(config_.primary);
    received_lsn_ = mark;
    applied_lsn_ = mark;
  }
}

net::Envelope StandbyReplayer::handle(const net::Envelope& request) {
  switch (request.type) {
    case net::MsgType::kReplShip:
      return handle_ship_(request);
    case net::MsgType::kReplBootstrap:
      return handle_bootstrap_(request);
    default:
      break;
  }
  {
    std::lock_guard lock(mutex_);
    if (!promoted_) {
      // Read replica: balance queries plus the challenge round that
      // authenticates them.  Everything else needs the primary.
      if (request.type != net::MsgType::kPresentChallengeRequest &&
          request.type != net::MsgType::kAccountQuery) {
        return net::make_error_reply(
            request,
            util::fail(ErrorCode::kUnavailable,
                       "'" + config_.name +
                           "' is a read-only standby of '" +
                           config_.primary + "'"));
      }
      if (request.type == net::MsgType::kAccountQuery &&
          primary_durable_ > applied_lsn_ &&
          primary_durable_ - applied_lsn_ >
              config_.staleness_limit_records) {
        return net::make_error_reply(
            request,
            util::fail(ErrorCode::kUnavailable,
                       "replica '" + config_.name + "' lags " +
                           std::to_string(primary_durable_ - applied_lsn_) +
                           " records, over its staleness bound"));
      }
    } else if (applied_lsn_ < catchup_target_) {
      // Promotion ordering guarantee: nothing is served — reads included —
      // until every frame received before promotion has been applied, so
      // no reply can predate the promoted state.
      return net::make_error_reply(
          request,
          util::fail(ErrorCode::kUnavailable,
                     "promoted replica '" + config_.name +
                         "' is catching up to its promotion epoch"));
    }
  }
  // The replayed state answers through the ordinary server paths; the
  // mutex is released first so replication can progress underneath.
  return config_.server->handle(request);
}

net::Envelope StandbyReplayer::handle_ship_(const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<ShipRequest>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const ShipRequest& req = parsed.value();

  std::lock_guard lock(mutex_);
  if (config_.enable_fencing && (promoted_ || req.epoch < epoch_)) {
    // The sender is a deposed primary (or we ARE the primary now): refuse
    // with our epoch so it fences itself instead of forking history.
    return net::make_error_reply(
        request, util::fail(ErrorCode::kFenced,
                            "'" + config_.name + "' holds replication epoch " +
                                std::to_string(epoch_),
                            epoch_));
  }
  epoch_ = std::max(epoch_, req.epoch);
  last_heard_ = config_.clock->now();
  primary_durable_ = std::max(primary_durable_, req.durable_lsn);
  // A server that can no longer persist acks nothing, including the frame
  // whose append killed its disk: the semi-sync barrier must stop counting
  // this replica.  The shipper takes the refusal as no progress.
  const auto storage_dead_reply = [&] {
    return net::make_error_reply(
        request, util::fail(ErrorCode::kUnavailable,
                            "standby '" + config_.name +
                                "' can no longer persist shipped frames"));
  };
  if (config_.server->storage_dead()) return storage_dead_reply();
  if (!needs_bootstrap_) {
    // A resubscribed standby's state may have diverged (it applied frames
    // its new primary never received): no frame is applied until the
    // snapshot bootstrap realigns the histories.
    for (const ShippedFrame& frame : req.frames) {
      if (frame.lsn <= received_lsn_) continue;  // resend from an old
                                                 // watermark: idempotent skip
      if (frame.lsn != received_lsn_ + 1) break;  // gap: ack what we hold and
                                                  // let the shipper resend
      received_lsn_ = frame.lsn;
      pending_.push_back(frame);
    }
    if (config_.apply_on_receive) apply_pending_locked_();
    if (config_.server->storage_dead()) return storage_dead_reply();
  }
  ShipReply reply;
  reply.epoch = epoch_;
  reply.received_lsn = received_lsn_;
  reply.applied_lsn = applied_lsn_;
  reply.needs_bootstrap = needs_bootstrap_;
  return net::make_reply(request, net::MsgType::kReplShipReply, reply);
}

net::Envelope StandbyReplayer::handle_bootstrap_(
    const net::Envelope& request) {
  auto parsed = wire::decode_from_bytes<BootstrapRequest>(request.payload);
  if (!parsed.is_ok()) return net::make_error_reply(request, parsed.status());
  const BootstrapRequest& req = parsed.value();

  std::lock_guard lock(mutex_);
  if (config_.enable_fencing && (promoted_ || req.epoch < epoch_)) {
    return net::make_error_reply(
        request, util::fail(ErrorCode::kFenced,
                            "'" + config_.name + "' holds replication epoch " +
                                std::to_string(epoch_),
                            epoch_));
  }
  epoch_ = std::max(epoch_, req.epoch);
  last_heard_ = config_.clock->now();
  if (req.snapshot_lsn > received_lsn_ || needs_bootstrap_) {
    if (!config_.storage_key.has_value()) {
      return net::make_error_reply(
          request, util::fail(ErrorCode::kInternal,
                              "standby has no storage key to unseal the "
                              "bootstrap snapshot"));
    }
    const util::Status restored = config_.server->restore_replica(
        req.primary, *config_.storage_key, req.sealed, req.snapshot_lsn);
    if (!restored.is_ok()) return net::make_error_reply(request, restored);
    pending_.clear();
    received_lsn_ = req.snapshot_lsn;
    applied_lsn_ = req.snapshot_lsn;
    primary_durable_ = std::max(primary_durable_, req.snapshot_lsn);
    needs_bootstrap_ = false;
  }
  // A snapshot at or below our watermark is a duplicate — ack idempotently.
  BootstrapReply reply;
  reply.epoch = epoch_;
  reply.watermark_lsn = received_lsn_;
  return net::make_reply(request, net::MsgType::kReplBootstrapReply, reply);
}

void StandbyReplayer::apply_pending_locked_() {
  while (!pending_.empty()) {
    const ShippedFrame frame = std::move(pending_.front());
    pending_.pop_front();
    const util::Status applied = config_.server->apply_replicated(
        frame.to_record(), config_.primary, frame.lsn);
    // A failed frame is counted and dropped, not retried: replay through
    // the recovery appliers only fails when histories diverged (the
    // fencing-off ablation) or the replica is genuinely broken, and the
    // chaos matrix asserts this counter stays 0 in every legal schedule.
    if (!applied.is_ok()) ++apply_failures_;
    applied_lsn_ = std::max(applied_lsn_, frame.lsn);
  }
}

util::Result<bool> StandbyReplayer::maybe_promote() {
  std::lock_guard lock(mutex_);
  if (promoted_) return true;
  const util::TimePoint now = config_.clock->now();
  if (last_heard_ == 0) {
    // First observation arms the failure detector: silence is measured
    // from here, not from an epoch-0 default that would fire instantly.
    last_heard_ = now;
    return false;
  }
  if (now - last_heard_ <= config_.heartbeat_timeout + jitter_) return false;
  RPROXY_RETURN_IF_ERROR(promote_locked_());
  return true;
}

util::Status StandbyReplayer::promote() {
  std::lock_guard lock(mutex_);
  return promote_locked_();
}

util::Status StandbyReplayer::promote_locked_() {
  if (promoted_) return util::Status::ok();
  if (config_.directory != nullptr) {
    const auto snapshot = config_.directory->snapshot();
    if (snapshot) {
      // The cutover map: the primary's ring arcs, now served by us.  A
      // standby may only take over arcs the primary still owns — if a
      // sibling already replaced it, the replacement below would be a
      // no-op map whose bumped version would still install.
      const sharding::ShardMap& base = snapshot->map();
      const bool primary_present =
          std::any_of(base.shards.begin(), base.shards.end(),
                      [&](const auto& e) { return e.shard == config_.primary; }) ||
          std::any_of(base.overrides.begin(), base.overrides.end(),
                      [&](const auto& o) { return o.shard == config_.primary; });
      if (!primary_present) {
        return util::fail(ErrorCode::kUnavailable,
                          "standby '" + config_.name +
                              "' lost the promotion race (the primary is no "
                              "longer in the shard map)");
      }
      // install() is strictly-newer-only, so exactly one sibling standby
      // wins a same-base promotion race; the losers stay standbys.
      sharding::ShardMap next =
          sharding::with_member_replaced(base, config_.primary, config_.name);
      if (!config_.directory->install(std::move(next))) {
        return util::fail(ErrorCode::kUnavailable,
                          "standby '" + config_.name +
                              "' lost the promotion race (a newer shard "
                              "map is already installed)");
      }
    }
  }
  promoted_ = true;
  epoch_ += 1;
  // Serve nothing until everything received before promotion is applied
  // (instant for a hot standby, whose pending queue is always empty).
  catchup_target_ = received_lsn_;
  return util::Status::ok();
}

void StandbyReplayer::resubscribe(const PrincipalName& new_primary,
                                  std::uint64_t epoch) {
  std::lock_guard lock(mutex_);
  if (promoted_) return;  // a promoted node never demotes in place
  // Discard the divergent unacked tail outright; even the ACKED tail may
  // exceed what the new primary received (per-standby shipping
  // watermarks), so the applied state itself is suspect — demand a full
  // snapshot bootstrap before following the new primary's frames.
  pending_.clear();
  config_.primary = new_primary;
  epoch_ = std::max(epoch_, epoch);
  received_lsn_ = 0;
  applied_lsn_ = 0;
  primary_durable_ = 0;
  needs_bootstrap_ = true;
  // Restart the failure detector: silence is measured against the NEW
  // primary from this moment.
  last_heard_ = config_.clock->now();
}

PrincipalName StandbyReplayer::primary() const {
  std::lock_guard lock(mutex_);
  return config_.primary;
}

bool StandbyReplayer::needs_bootstrap() const {
  std::lock_guard lock(mutex_);
  return needs_bootstrap_;
}

util::Status StandbyReplayer::apply_pending() {
  std::lock_guard lock(mutex_);
  const std::uint64_t failures_before = apply_failures_;
  apply_pending_locked_();
  if (apply_failures_ != failures_before) {
    return util::fail(ErrorCode::kInternal,
                      std::to_string(apply_failures_ - failures_before) +
                          " frame(s) failed to apply");
  }
  return util::Status::ok();
}

std::uint64_t StandbyReplayer::epoch() const {
  std::lock_guard lock(mutex_);
  return epoch_;
}

bool StandbyReplayer::promoted() const {
  std::lock_guard lock(mutex_);
  return promoted_;
}

std::uint64_t StandbyReplayer::received_lsn() const {
  std::lock_guard lock(mutex_);
  return received_lsn_;
}

std::uint64_t StandbyReplayer::applied_lsn() const {
  std::lock_guard lock(mutex_);
  return applied_lsn_;
}

std::uint64_t StandbyReplayer::primary_durable_lsn() const {
  std::lock_guard lock(mutex_);
  return primary_durable_;
}

std::uint64_t StandbyReplayer::apply_failures() const {
  std::lock_guard lock(mutex_);
  return apply_failures_;
}

}  // namespace rproxy::accounting::replication
