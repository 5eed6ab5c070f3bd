// Standby-side replication: hot standby, read replica, takeover
// (DESIGN.md §5h).
//
// A StandbyReplayer wraps a (normally empty) AccountingServer and sits on
// the net under its own node id.  It accepts kReplShip / kReplBootstrap
// from its primary, applies the frames through the same appliers crash
// recovery uses, and tracks the replicated watermark in the PRIMARY's LSN
// space.  Before promotion it serves read-only traffic (balance queries
// plus the challenge round that authenticates them) from the replayed
// state, refusing when it lags the primary's durable watermark by more
// than the configured staleness bound.  Once the wrapped server's storage
// is dead, every ship is refused (kUnavailable) instead of acked, so the
// primary's semi-sync barrier no longer counts a replica that cannot
// persist.
//
// Takeover: when the primary has been silent past the heartbeat timeout
// plus a per-standby deterministic jitter (jitter breaks promotion
// stampedes between sibling standbys), the standby promotes itself — it
// bumps the cluster epoch, installs a strictly-newer shard map that
// replaces the primary with itself (ShardDirectory::install loses cleanly
// if a sibling won the race), and from then on fences the old primary's
// ships with kFenced.  Promotion ordering guarantee: a promoted replica
// refuses ALL traffic until it has applied every frame it had received at
// promotion time, so nothing it acks can predate its own state.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "accounting/accounting_server.hpp"
#include "accounting/replication/replication.hpp"
#include "accounting/sharding/shard_map.hpp"

namespace rproxy::accounting::replication {

class StandbyReplayer final : public net::Node {
 public:
  struct Config {
    /// This standby's node id (and the name it joins the shard map under
    /// when promoted).  Must equal the wrapped server's principal name so
    /// credentials presented after promotion verify against it.
    PrincipalName name;
    /// The primary being replicated.
    PrincipalName primary;
    /// The wrapped replica server (usually booted empty, shard gate off —
    /// the replayer is its gate).  Not owned; must outlive the replayer.
    AccountingServer* server = nullptr;
    const util::Clock* clock = nullptr;
    /// Unseals bootstrap snapshots (must match the primary's storage key).
    std::optional<crypto::SymmetricKey> storage_key;
    /// Replication epoch this standby starts in (the shipper's epoch).
    std::uint64_t epoch = 1;
    /// Primary silence that arms promotion...
    util::Duration heartbeat_timeout = 2 * util::kSecond;
    /// ...plus a deterministic per-standby jitter in [0, jitter_max],
    /// drawn from jitter_seed, so sibling standbys don't stampede.
    util::Duration jitter_max = 1 * util::kSecond;
    std::uint64_t jitter_seed = 0;
    /// Read-replica staleness bound: refuse reads when the primary's
    /// durable watermark is more than this many records ahead of the
    /// applied one.  Max = never refuse for lag.
    std::uint64_t staleness_limit_records =
        ~static_cast<std::uint64_t>(0);
    /// Apply frames as they arrive (hot standby).  Off = frames queue
    /// until promotion or an explicit apply_pending() (warm standby; lets
    /// tests drive the received/applied gap).
    bool apply_on_receive = true;
    /// Reject ships carrying an older epoch (and any ship after this
    /// standby promoted).  Off ONLY for the chaos ablation proving that
    /// split-brain without fencing corrupts the books.
    bool enable_fencing = true;
    /// Shard directory promotion installs the failover map into (shared
    /// with the fleet's gates and the map service).  nullptr = standalone
    /// primary/standby pair, no map cutover.
    sharding::ShardDirectory* directory = nullptr;
  };

  explicit StandbyReplayer(Config config);

  net::Envelope handle(const net::Envelope& request) override;

  /// Promotes if the primary has been silent past timeout + jitter.
  /// ok(true) = promoted now; ok(false) = not yet (still hearing from the
  /// primary, or the window hasn't elapsed); error = promotion attempted
  /// but a sibling won the map-install race (this node stays standby).
  [[nodiscard]] util::Result<bool> maybe_promote();

  /// Unconditional promotion (the maybe_promote path and tests).
  [[nodiscard]] util::Status promote();

  /// Applies every queued frame (warm-standby mode).
  [[nodiscard]] util::Status apply_pending();

  /// Loser re-subscription (DESIGN.md §5h): this standby lost the
  /// promotion race (or its primary was replaced under it) and must
  /// follow `new_primary` at `epoch` instead.  Any unacked divergent tail
  /// is discarded and the next ship is answered with needs_bootstrap —
  /// this standby may have APPLIED frames the new primary never received,
  /// so only a snapshot restore can realign the histories.
  void resubscribe(const PrincipalName& new_primary, std::uint64_t epoch);

  /// The primary currently subscribed to (changes on resubscribe()).
  [[nodiscard]] PrincipalName primary() const;
  /// True while a resubscribed standby awaits its snapshot bootstrap.
  [[nodiscard]] bool needs_bootstrap() const;

  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] bool promoted() const;
  /// Contiguous replicated watermark, in the primary's LSN space.
  [[nodiscard]] std::uint64_t received_lsn() const;
  [[nodiscard]] std::uint64_t applied_lsn() const;
  /// The primary's durable watermark as of the last ship heard.
  [[nodiscard]] std::uint64_t primary_durable_lsn() const;
  /// Frames whose replay failed (dropped; nonzero only under ablations or
  /// genuine divergence — the chaos matrix asserts this stays 0).
  [[nodiscard]] std::uint64_t apply_failures() const;

  [[nodiscard]] AccountingServer& server() { return *config_.server; }
  [[nodiscard]] const PrincipalName& name() const { return config_.name; }

 private:
  net::Envelope handle_ship_(const net::Envelope& request);
  net::Envelope handle_bootstrap_(const net::Envelope& request);
  /// Drains pending_ through AccountingServer::apply_replicated.
  /// mutex_ must be held.
  void apply_pending_locked_();
  [[nodiscard]] util::Status promote_locked_();

  Config config_;
  util::Duration jitter_;
  mutable std::mutex mutex_;
  std::uint64_t epoch_;
  bool promoted_ = false;
  std::uint64_t received_lsn_ = 0;
  std::uint64_t applied_lsn_ = 0;
  std::uint64_t primary_durable_ = 0;
  /// Frames received (counted in received_lsn_) but not yet applied.
  std::deque<ShippedFrame> pending_;
  /// 0 until the first ship/bootstrap (or maybe_promote call) arms the
  /// failure detector.
  util::TimePoint last_heard_ = 0;
  /// LSN promotion must catch up to before serving (the received
  /// watermark at promotion time).
  std::uint64_t catchup_target_ = 0;
  std::uint64_t apply_failures_ = 0;
  /// Set by resubscribe(): frames are refused (needs_bootstrap in the
  /// ship reply) until the new primary sends a snapshot bootstrap.
  bool needs_bootstrap_ = false;
};

}  // namespace rproxy::accounting::replication
