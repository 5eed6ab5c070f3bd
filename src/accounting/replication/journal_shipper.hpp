// Primary-side journal shipping (DESIGN.md §5h).
//
// A JournalShipper owns the primary's view of its standbys: per-standby
// acked watermarks, the cluster epoch, and the ship loop that reads
// committed frames out of the primary's LogDir (never above the fsync
// watermark — shipped ⊆ fsynced) and streams them over the net.  Wired
// into AccountingServer::Config::replication_barrier via barrier(), it
// turns the primary semi-synchronous: no reply is acked until every
// standby has acknowledged the records behind it.
//
// When a standby answers kFenced — it promoted itself under a newer
// epoch — the shipper fences the primary (fence_primary), which then
// refuses all requests: the fork is stopped at the moment it is detected,
// before any split-brain write can be acked.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "accounting/accounting_server.hpp"
#include "accounting/replication/replication.hpp"

namespace rproxy::accounting::replication {

class JournalShipper {
 public:
  struct Config {
    /// The primary whose journal is shipped.  Not owned; must outlive the
    /// shipper.
    AccountingServer* primary = nullptr;
    net::SimNet* net = nullptr;
    /// Standby node ids (StandbyReplayer attachments).
    std::vector<PrincipalName> standbys;
    /// Replication epoch stamped on every ship; standbys reject older
    /// epochs (kFenced).  A fresh cluster starts at 1.
    std::uint64_t epoch = 1;
    /// Largest frame batch per ship RPC.
    std::size_t max_frames_per_ship = 256;
    /// ship_until() rounds before giving up (each round re-ships to every
    /// lagging standby).
    int max_attempts = 6;
    /// Fence the primary (AccountingServer::fence()) the moment a standby
    /// answers kFenced.  Off only for the chaos ablation that shows what
    /// split-brain does to the books.
    bool fence_primary = true;
  };

  /// Outcome of one ship round.
  struct Progress {
    std::uint64_t durable_lsn = 0;    ///< primary watermark at round start
    std::uint64_t min_acked_lsn = 0;  ///< slowest standby's acked LSN
    bool all_reachable = true;        ///< every standby answered this round
    bool fenced = false;              ///< a standby fenced us off
    /// The first committed-tail read that failed other than kNotFound
    /// (a corrupt durable frame): no later round reads it differently.
    util::Status read_error = util::Status::ok();
  };

  explicit JournalShipper(Config config);

  /// Ships one batch to every standby (an empty batch is the heartbeat;
  /// FailoverCoordinator::tick() is its source) and returns the round's
  /// progress.  Thread-safe, and safe to race with barrier() callers: the
  /// mutex is never held across network I/O, acks merge monotonically.
  Progress ship_once();

  /// Returns once every standby has acknowledged `lsn`: at once when they
  /// already have (or there are none), otherwise after ship rounds bounded
  /// by Config::max_attempts.  Concurrent callers share one ship_once()
  /// round in flight.
  /// kFenced once a standby promotion is detected; kUnavailable when a
  /// standby stays unreachable or lagging; a round's read_error as soon
  /// as a round this caller saw end reports one.
  [[nodiscard]] util::Status ship_until(std::uint64_t lsn);

  /// The semi-sync hook for AccountingServer::Config::replication_barrier.
  [[nodiscard]] std::function<util::Status(std::uint64_t)> barrier() {
    return [this](std::uint64_t lsn) { return ship_until(lsn); };
  }

  /// Acked watermark of one standby (0 if unknown).
  [[nodiscard]] std::uint64_t acked_lsn(const PrincipalName& standby) const;
  /// Slowest standby's acked watermark (0 with no standbys).
  [[nodiscard]] std::uint64_t min_acked_lsn() const;
  [[nodiscard]] bool fenced() const { return fenced_.load(); }
  [[nodiscard]] std::uint64_t epoch() const { return config_.epoch; }

  /// Test/ops hook: forget acks above `lsn` for `standby`, forcing the
  /// next round to re-ship from there (exercises resend idempotence).
  void rewind(const PrincipalName& standby, std::uint64_t lsn);

 private:
  /// One standby's slice of a round: bootstrap if compacted past (or the
  /// standby asked for one — a resubscribed promotion-race loser), then
  /// ship the next batch.  Updates `acked`; flags fall into `progress`.
  /// Called WITHOUT mutex_ held (it performs network I/O).
  void ship_standby_(const PrincipalName& standby, std::uint64_t& acked,
                     Progress& progress);
  /// Sends the newest sealed snapshot to `standby` and advances `acked`
  /// to the snapshot LSN it acknowledges.  Shared by the compaction and
  /// needs_bootstrap paths.  Called without mutex_ held.
  void bootstrap_standby_(const PrincipalName& standby, std::uint64_t& acked,
                          Progress& progress);

  [[nodiscard]] std::uint64_t min_acked_locked_() const;

  Config config_;
  mutable std::mutex mutex_;
  std::map<PrincipalName, std::uint64_t> acked_;
  /// ship_until()'s shared round (guarded by mutex_): set while one caller
  /// ships; the others wait on round_done_ for rounds_done_ to move.
  bool round_in_flight_ = false;
  std::uint64_t rounds_done_ = 0;
  /// The last ship_until() round's Progress::read_error.
  util::Status round_read_error_ = util::Status::ok();
  std::condition_variable round_done_;
  std::atomic<bool> fenced_{false};
  /// The promoted standby's epoch, learned from its kFenced answer.
  std::atomic<std::uint64_t> fencing_epoch_{0};
};

}  // namespace rproxy::accounting::replication
