#include "accounting/replication/journal_shipper.hpp"

#include <algorithm>

#include "net/rpc.hpp"

namespace rproxy::accounting::replication {

using util::ErrorCode;

JournalShipper::JournalShipper(Config config) : config_(std::move(config)) {
  for (const PrincipalName& standby : config_.standbys) {
    acked_.emplace(standby, 0);
  }
}

JournalShipper::Progress JournalShipper::ship_once() {
  // Watermarks are snapshotted under the lock and the network round runs
  // WITHOUT it, so a ship_until() caller parked on mutex_ never waits out
  // someone else's I/O.  Two concurrent rounds (a heartbeat racing a
  // barrier round) at worst re-send frames the standby skips
  // idempotently; acks only ever merge forward (max).
  Progress progress;
  std::map<PrincipalName, std::uint64_t> round;
  {
    std::lock_guard lock(mutex_);
    progress.fenced = fenced_.load();
    round = acked_;
  }
  progress.durable_lsn = config_.primary->journal_durable_lsn();
  if (progress.fenced || round.empty()) return progress;

  for (auto& [standby, acked] : round) {
    ship_standby_(standby, acked, progress);
  }

  {
    std::lock_guard lock(mutex_);
    for (const auto& [standby, acked] : round) {
      const auto it = acked_.find(standby);
      if (it != acked_.end()) it->second = std::max(it->second, acked);
    }
    progress.min_acked_lsn = min_acked_locked_();
    if (progress.fenced) fenced_.store(true);
  }
  if (progress.fenced && config_.fence_primary) config_.primary->fence();
  return progress;
}

void JournalShipper::bootstrap_standby_(const PrincipalName& standby,
                                        std::uint64_t& acked,
                                        Progress& progress) {
  const PrincipalName& self = config_.primary->name();
  auto snapshot = config_.primary->latest_snapshot();
  if (!snapshot.is_ok() || !snapshot.value().has_value()) {
    progress.all_reachable = false;
    return;
  }
  BootstrapRequest request;
  request.primary = self;
  request.epoch = config_.epoch;
  request.snapshot_lsn = snapshot.value()->lsn;
  request.sealed = snapshot.value()->sealed;
  auto reply = net::call<BootstrapReply>(
      *config_.net, self, standby, net::MsgType::kReplBootstrap,
      net::MsgType::kReplBootstrapReply, request);
  if (!reply.is_ok()) {
    if (reply.code() == ErrorCode::kFenced) {
      progress.fenced = true;
      fencing_epoch_.store(reply.status().detail());
    } else {
      progress.all_reachable = false;
    }
    return;
  }
  acked = std::max(acked, reply.value().watermark_lsn);
}

void JournalShipper::ship_standby_(const PrincipalName& standby,
                                   std::uint64_t& acked, Progress& progress) {
  const PrincipalName& self = config_.primary->name();
  auto tail =
      config_.primary->journal_read_committed(acked + 1,
                                              config_.max_frames_per_ship);
  if (!tail.is_ok() && tail.code() == ErrorCode::kNotFound) {
    // The records this standby needs were compacted away by a checkpoint:
    // re-seed it from the newest sealed snapshot, then resume shipping
    // from the snapshot's LSN next round.
    bootstrap_standby_(standby, acked, progress);
    return;
  }
  if (!tail.is_ok()) {
    progress.all_reachable = false;
    if (progress.read_error.is_ok()) progress.read_error = tail.status();
    return;
  }

  ShipRequest request;
  request.primary = self;
  request.epoch = config_.epoch;
  request.durable_lsn = tail.value().durable_lsn;
  request.frames.reserve(tail.value().records.size());
  for (const storage::JournalRecord& record : tail.value().records) {
    request.frames.push_back(ShippedFrame::from_record(record));
  }
  // An empty batch still goes out: it is the heartbeat that feeds the
  // standby's failure detector and staleness bound.
  auto reply =
      net::call<ShipReply>(*config_.net, self, standby,
                           net::MsgType::kReplShip,
                           net::MsgType::kReplShipReply, request);
  if (!reply.is_ok()) {
    if (reply.code() == ErrorCode::kFenced) {
      progress.fenced = true;
      fencing_epoch_.store(reply.status().detail());
    } else {
      progress.all_reachable = false;
    }
    return;
  }
  if (reply.value().needs_bootstrap) {
    // A resubscribed promotion-race loser: its history may have diverged,
    // so LSN-resume cannot heal it — only a snapshot restore can.
    acked = 0;
    bootstrap_standby_(standby, acked, progress);
    return;
  }
  acked = std::max(acked, reply.value().received_lsn);
}

util::Status JournalShipper::ship_until(std::uint64_t lsn) {
  // Leader/follower, in the shape of JournalWriter::commit's group
  // barrier: one round in flight serves every caller.  A caller that finds
  // no round running leads one (mutex_ released across its I/O); the rest
  // park until it ends and check again.  Each round a caller sees end
  // short of its LSN — led or parked on — counts against max_attempts,
  // and one that could not read the journal ends the wait.
  std::unique_lock lock(mutex_);
  for (int rounds = 0;; ++rounds) {
    if (fenced_.load()) break;
    if (acked_.empty() || min_acked_locked_() >= lsn) {
      return util::Status::ok();
    }
    if (rounds > 0 && !round_read_error_.is_ok()) return round_read_error_;
    if (rounds == config_.max_attempts) break;
    if (round_in_flight_) {
      const std::uint64_t seen = rounds_done_;
      round_done_.wait(lock, [&] { return rounds_done_ != seen; });
      continue;
    }
    round_in_flight_ = true;
    lock.unlock();
    util::Status read_error = ship_once().read_error;
    lock.lock();
    round_in_flight_ = false;
    round_read_error_ = std::move(read_error);
    rounds_done_ += 1;
    round_done_.notify_all();
  }
  if (fenced_.load()) {
    return util::fail(ErrorCode::kFenced,
                      "primary '" + config_.primary->name() +
                          "' was fenced by a promoted standby",
                      fencing_epoch_.load());
  }
  return util::fail(ErrorCode::kUnavailable,
                    "standbys did not acknowledge LSN " +
                        std::to_string(lsn) + " within " +
                        std::to_string(config_.max_attempts) +
                        " ship rounds");
}

std::uint64_t JournalShipper::acked_lsn(const PrincipalName& standby) const {
  std::lock_guard lock(mutex_);
  const auto it = acked_.find(standby);
  return it == acked_.end() ? 0 : it->second;
}

std::uint64_t JournalShipper::min_acked_lsn() const {
  std::lock_guard lock(mutex_);
  return min_acked_locked_();
}

std::uint64_t JournalShipper::min_acked_locked_() const {
  std::uint64_t min = 0;
  bool first = true;
  for (const auto& [standby, acked] : acked_) {
    min = first ? acked : std::min(min, acked);
    first = false;
  }
  return min;
}

void JournalShipper::rewind(const PrincipalName& standby, std::uint64_t lsn) {
  std::lock_guard lock(mutex_);
  const auto it = acked_.find(standby);
  if (it != acked_.end()) it->second = std::min(it->second, lsn);
}

}  // namespace rproxy::accounting::replication
