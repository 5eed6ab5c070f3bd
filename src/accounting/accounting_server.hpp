// The accounting server (§4, Fig 5).
//
// Maintains accounts, answers authenticated queries and transfers, places
// holds for certified checks, and clears deposited checks — locally when it
// is the drawee, otherwise by endorsing the check onward and collecting
// from the next accounting server ("$1 marks the resources added to S's
// account as uncollected, adds its own endorsement and forwards the check
// to $2").
//
// Requests are authenticated with public-key identity proofs bound to a
// single-use challenge; checks themselves are verified as proxy chains.
//
// Durability (DESIGN.md §5e): when `Config::storage_dir` is set, every
// state mutation appends a typed record to a write-ahead journal before
// the reply leaves the server, and recover() rebuilds the exact
// pre-crash state from the latest sealed snapshot plus the journal tail.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include <set>

#include "accounting/account.hpp"
#include "accounting/check.hpp"
#include "accounting/sharding/shard_map.hpp"
#include "core/challenge_registry.hpp"
#include "core/revocation.hpp"
#include "net/retry.hpp"
#include "net/rpc.hpp"
#include "pki/pk_auth.hpp"
#include "storage/log_dir.hpp"
#include "util/expiring_table.hpp"

namespace rproxy::accounting {

/// Account-query request.
struct AccountQueryPayload {
  core::PossessionProof identity;
  std::uint64_t challenge_id = 0;
  std::string account;

  void encode(wire::Encoder& enc) const;
  static AccountQueryPayload decode(wire::Decoder& dec);
};

/// Account-query reply.
struct AccountReplyPayload {
  Balances balances;
  Balances held;

  void encode(wire::Encoder& enc) const;
  static AccountReplyPayload decode(wire::Decoder& dec);
};

/// Local transfer between two accounts on this server.  (Cross-server
/// transfers ride on checks, §4.)
struct TransferPayload {
  core::PossessionProof identity;
  std::uint64_t challenge_id = 0;
  std::string from_account;
  std::string to_account;
  Currency currency;
  std::uint64_t amount = 0;

  void encode(wire::Encoder& enc) const;
  static TransferPayload decode(wire::Decoder& dec);
};

struct TransferReplyPayload {
  bool ok = false;

  void encode(wire::Encoder& enc) const { enc.boolean(ok); }
  static TransferReplyPayload decode(wire::Decoder& dec) {
    return TransferReplyPayload{dec.boolean()};
  }
};

/// Certified-check request: "the client draws a check and provides the
/// details (the check number, the party to be paid, and the amount) to the
/// accounting server.  The accounting server places a hold on the resources
/// and returns an authorization proxy to the client certifying that the
/// client has sufficient resources to cover the check."
struct CertifyPayload {
  core::PossessionProof identity;
  std::uint64_t challenge_id = 0;
  std::string account;
  PrincipalName payee;
  Currency currency;
  std::uint64_t amount = 0;
  std::uint64_t check_number = 0;
  /// Where the certification will be shown (the payee's application
  /// server); becomes its issued-for restriction.
  PrincipalName target_server;
  util::TimePoint hold_until = 0;

  void encode(wire::Encoder& enc) const;
  static CertifyPayload decode(wire::Decoder& dec);
};

struct CertifyReplyPayload {
  /// The certification: a delegate proxy granted to the payor asserting
  /// that the hold exists.
  core::ProxyChain certification;
  util::TimePoint expires_at = 0;

  void encode(wire::Encoder& enc) const;
  static CertifyReplyPayload decode(wire::Decoder& dec);
};

/// Check deposit (messages E1/E2 of Fig 5).
struct DepositPayload {
  core::PossessionProof identity;
  std::uint64_t challenge_id = 0;
  Check check;  ///< endorsed over to this server's collection
  /// Local account to credit with the collected funds.
  std::string collect_account;
  /// Amount to draw, up to the check's limit.
  std::uint64_t amount = 0;

  void encode(wire::Encoder& enc) const;
  static DepositPayload decode(wire::Decoder& dec);
};

struct DepositReplyPayload {
  bool cleared = false;
  /// Accounting-server hops the check traversed to reach the drawee.
  std::uint32_t hops = 0;

  void encode(wire::Encoder& enc) const;
  static DepositReplyPayload decode(wire::Decoder& dec);
};

/// Cashier's check request (§4: "Cashier's checks are also easily
/// supported by this accounting model"): the client buys a check DRAWN ON
/// THE BANK ITSELF — funds move from the client's account into the bank's
/// cashier account immediately, and the returned check is signed by the
/// bank, so it cannot bounce and does not reveal the payor's account.
struct CashierPayload {
  core::PossessionProof identity;
  std::uint64_t challenge_id = 0;
  std::string account;  ///< client account to fund the check from
  PrincipalName payee;
  Currency currency;
  std::uint64_t amount = 0;

  void encode(wire::Encoder& enc) const;
  static CashierPayload decode(wire::Decoder& dec);
};

struct CashierReplyPayload {
  Check check;  ///< drawn on this server's cashier account, bank-signed

  void encode(wire::Encoder& enc) const { check.encode(enc); }
  static CashierReplyPayload decode(wire::Decoder& dec) {
    return CashierReplyPayload{Check::decode(dec)};
  }
};

/// Local account that backs cashier's checks.
inline constexpr std::string_view kCashierAccount = "cashier";

/// One rebalance/split operation (DESIGN.md §5g): move every account whose
/// stable_hash64 falls in [lo, hi] (inclusive) from shard `source` to shard
/// `target`.  The id makes the whole protocol idempotent — a crashed
/// migration is simply re-driven under the same id and every completed step
/// no-ops.
struct MigrationSpec {
  std::uint64_t migration_id = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  PrincipalName source;
  PrincipalName target;

  void encode(wire::Encoder& enc) const;
  static MigrationSpec decode(wire::Decoder& dec);

  [[nodiscard]] bool covers(std::string_view account) const {
    const std::uint64_t h = sharding::stable_hash64(account);
    return h >= lo && h <= hi;
  }
};

/// One account's portable state: balances plus its outstanding certified
/// holds (keyed by payor + check number like the server's own table).
struct MigratedAccount {
  struct Hold {
    PrincipalName payor;
    std::uint64_t check_number = 0;
    Currency currency;
    std::uint64_t amount = 0;
    util::TimePoint expires_at = 0;
  };

  std::string name;
  PrincipalName owner;
  Balances balances;
  std::vector<Hold> holds;

  void encode(wire::Encoder& enc) const;
  static MigratedAccount decode(wire::Decoder& dec);
};

/// Object name a certification proxy asserts.
[[nodiscard]] std::string certified_check_object(std::uint64_t check_number);

/// Record types in the accounting write-ahead journal.  Part of the
/// durable on-disk format: values are append-only, never renumbered.
/// Each record is the post-validation EFFECT of one mutation (what to
/// re-apply on replay), not the request that caused it — replay never
/// re-verifies signatures or re-evaluates restrictions.
enum class JournalRecordType : std::uint16_t {
  kAccountOpen = 1,     ///< open_account / auto-opened settlement account
  kRouteSet = 2,        ///< set_route
  kTransfer = 3,        ///< local transfer between two accounts
  kCertify = 4,         ///< hold placed + certification reply issued
  kSettleLocal = 5,     ///< check settled as drawee (debit + credit)
  kForeignSettled = 6,  ///< foreign check collected from the drawee
  kCashier = 7,         ///< cashier's check funded
  kRevocation = 8,      ///< revocation-registry event observed
  kMigrateFreeze = 9,   ///< source: hash range frozen for migration
  kMigrateIn = 10,      ///< target: migrated accounts imported
  kMigrateOut = 11,     ///< source: migrated range evacuated, freeze lifted
  kReplApply = 12,      ///< standby: replicated record + source watermark
  kIdentityAdopt = 13,  ///< promoted: dead primary's bank name adopted
};

class AccountingServer final : public net::Node {
 public:
  struct Config {
    PrincipalName name;
    const util::Clock* clock = nullptr;
    /// Needed to forward checks to peer servers.
    net::SimNet* net = nullptr;
    /// Verifies check chains and identity proofs.
    const core::KeyResolver* resolver = nullptr;
    std::optional<crypto::VerifyKey> pk_root;
    /// Signs endorsements and certifications.
    crypto::SigningKeyPair identity_key;
    /// This server's own name-server certificate (to authenticate when
    /// collecting from peers).
    pki::IdentityCert identity_cert;
    util::Duration max_skew = 2 * util::kMinute;
    /// Verified-chain cache for check chains (see
    /// core::ProxyVerifier::Config); 0 disables.
    std::size_t verify_cache_capacity = 1024;
    util::Duration verify_cache_ttl = 5 * util::kMinute;
    /// Exactly-once clearing: remember the reply of every completed
    /// kCheckDeposit / kCertifyRequest keyed on the check's (grantor,
    /// check number) — the paper's own numbered-check restriction — and
    /// replay it on a duplicated or retried request instead of moving
    /// money twice.  Disable only to demonstrate the failure mode.
    bool enable_dedup = true;
    /// Backstop bound on the dedup tables (entries otherwise expire with
    /// their check).
    std::size_t dedup_capacity = 8192;
    /// Retry policy for collecting from peer servers (the Fig 5 forward
    /// path).  Safe because peers replay completed deposits from their
    /// dedup tables; retries only fire on transport errors.
    net::RetryPolicy collect_retry;
    /// Crash durability: when non-empty, recover() opens a write-ahead
    /// journal + snapshot store here, every mutation is journaled, and a
    /// reply leaves only after a group commit made its records durable.
    /// Setup calls that return void stay staged until the next commit,
    /// sync() or checkpoint().  Empty = in-memory only (tests, benchmarks
    /// that don't care about restarts).
    std::string storage_dir;
    /// Seals on-disk snapshots; required when storage_dir is set.
    std::optional<crypto::SymmetricKey> storage_key;
    /// Unread: every journal group-commits.  Kept only because the
    /// end-to-end benchmark's deployment still assigns it.
    storage::FsyncPolicy fsync_policy = storage::FsyncPolicy::kGroup;
    /// Test-only deterministic kill injection for the journal; not owned.
    storage::CrashPoint* crash_point = nullptr;
    /// Shared revocation registry: check verification consults it, and —
    /// when storage is on — every registry event is journaled and folded
    /// into snapshots, so revocations survive a crash-restart.  nullptr
    /// disables revocation.
    core::RevocationRegistry* revocation = nullptr;
    /// Shard gate (DESIGN.md §5g): when set, every request naming a client
    /// account this shard does not own under the current map is refused
    /// with kWrongShard (Status::detail() = deciding map version) so the
    /// client refreshes its map and re-routes.  Infrastructure accounts
    /// (cashier, peer:* settlement) are exempt.  nullptr = single-bank
    /// mode, gate open.  Not owned; must be safe for concurrent lookups.
    const sharding::ShardView* shard = nullptr;
    /// Semi-synchronous replication barrier (DESIGN.md §5h): when set,
    /// handle() calls it after the group-commit barrier and before any
    /// non-error reply leaves, passing the highest LSN appended so far
    /// (made durable first).  The hook (replication::JournalShipper::barrier())
    /// returns OK once every standby has acknowledged that LSN; on
    /// failure the reply is withheld — an acked operation must never
    /// exist only on a primary that is about to be failed over.  The
    /// watermark target also covers dedup-replayed replies: the record
    /// behind a replayed reply is already durable, hence <= the watermark
    /// waited on.  Called outside state_mutex_.
    std::function<util::Status(std::uint64_t durable_lsn)>
        replication_barrier;
  };

  explicit AccountingServer(Config config);
  ~AccountingServer() override;

  /// Opens (or replaces) an account.  The record is journaled but staged:
  /// it becomes durable (and shippable) with the next commit, sync() or
  /// checkpoint(), so bring-up opens any number of accounts for one
  /// fsync.  A crash before then loses the account.  Returning only once
  /// the record is durable waits for a batch form of this call that the
  /// end-to-end benchmark's bring-up can use: one commit per account
  /// would cost one fsync each.
  void open_account(const std::string& local_name,
                    const PrincipalName& owner, Balances initial = {});
  /// Direct account access for setup and single-threaded inspection.  The
  /// returned pointer is NOT protected against concurrent handle() calls;
  /// quiesce the server (or use the query RPC) before dereferencing while
  /// serving.
  [[nodiscard]] Account* account(const std::string& local_name);
  [[nodiscard]] const Account* account(const std::string& local_name) const;

  /// Clearing route override: checks drawn on `drawee` are collected via
  /// `via` instead of directly (models correspondent-banking chains; used
  /// by the Fig 5 hop sweep).  Journaled and durable when it returns OK.
  [[nodiscard]] util::Status set_route(const PrincipalName& drawee,
                                       const PrincipalName& via);

  /// Sealed state snapshot: every account (name, owner, balances), the
  /// outstanding certified holds, the clearing routes, and the
  /// exactly-once dedup tables, AEAD-sealed under `key` so a stored
  /// snapshot cannot be tampered with.  The dedup tables ride along so a
  /// crash-restarted server keeps replaying completed deposits instead of
  /// settling them twice — duplicate spends are caught by the durable
  /// tables even though the time-windowed replay caches (challenges,
  /// accept-once) restart empty.
  [[nodiscard]] util::Bytes snapshot(const crypto::SymmetricKey& key) const;

  /// Restores a snapshot taken with the same key, replacing all accounts
  /// and holds; revocation state is MERGED into the attached registry
  /// (its state is monotonic, so merging is safe and order-insensitive).
  /// Fails (state untouched) on a wrong key, tampering, or a truncated /
  /// unknown-version payload.  Accepts only the v6 format snapshot()
  /// writes.
  [[nodiscard]] util::Status restore(const crypto::SymmetricKey& key,
                                     util::BytesView snapshot);

  /// Opens Config::storage_dir and rebuilds state from it: restore the
  /// newest sealed snapshot, replay the journal tail, resume appending.
  /// Call once before serving; a fresh directory recovers to empty state.
  /// No-op without a storage_dir.
  [[nodiscard]] util::Status recover();

  /// Publishes a sealed snapshot of the current state, rotates the
  /// journal, and deletes the superseded files (log compaction).  Requires
  /// a recovered storage dir.
  [[nodiscard]] util::Status checkpoint();

  /// One group commit of everything appended so far: ends a bring-up
  /// whose staged setup records (open_account) must be durable, or
  /// shippable, without a snapshot.  No-op without storage.
  [[nodiscard]] util::Status sync();

  /// True once a journal append or sync has failed (crash point fired or
  /// real I/O error).  The server then refuses all requests — a process
  /// whose write-ahead log is gone must stop taking work, because it can
  /// no longer make the promises its replies imply.
  [[nodiscard]] bool storage_dead() const { return storage_dead_.load(); }

  /// LSN the next journaled mutation will get (1 if storage is off).
  [[nodiscard]] std::uint64_t journal_next_lsn() const;

  /// Group-commit counters of the active journal (all zero without
  /// storage; reset when a checkpoint rotates the journal).
  [[nodiscard]] storage::JournalWriter::GroupStats journal_group_stats()
      const;

  // ---- Replication (DESIGN.md §5h) ---------------------------------------

  /// Fences this server out of its replication cluster: a standby
  /// promoted itself under a newer epoch, so this primary's history has
  /// forked from the authoritative one.  Every subsequent request is
  /// refused (kUnavailable, like storage-dead); there is no unfence short
  /// of rebuilding the process as a standby of the new primary.
  void fence() { fenced_.store(true); }
  [[nodiscard]] bool fenced() const { return fenced_.load(); }

  /// Applies one shipped journal record through the recovery appliers
  /// (idempotent against the dedup tables, exactly like crash replay) and
  /// re-journals it locally when this replica has its own storage, wrapped
  /// in a kReplApply record that carries `source_lsn`.  Effect and
  /// watermark land in ONE local record, so a crash can never persist the
  /// effect without the watermark (or vice versa) — the shipper's
  /// idempotent resend heals either loss.  Incoming kReplApply wrappers
  /// (a standby-of-a-standby, or frames a promoted primary itself applied
  /// as a standby) are unwrapped once and re-stamped with this link's
  /// source/source_lsn; a wrapper nested inside a wrapper is refused
  /// (kParseError).  Refuses everything (kUnavailable) once this replica's
  /// own storage is dead, so a standby that can no longer persist stops
  /// advancing its watermark.  A refused record leaves the state untouched.
  /// Used by replication::StandbyReplayer; local LSNs need not match the
  /// primary's.
  [[nodiscard]] util::Status apply_replicated(
      const storage::JournalRecord& record, const PrincipalName& source,
      std::uint64_t source_lsn);

  /// Durable replication watermark: highest `source_lsn` applied from
  /// `source` via apply_replicated(), surviving restarts through the
  /// journal/snapshot.  0 when nothing was ever replicated from `source` —
  /// a restarted standby resumes shipping from here instead of
  /// re-bootstrapping.
  [[nodiscard]] std::uint64_t replication_watermark(
      const PrincipalName& source) const;

  /// restore() for a standby bootstrapping from its primary's sealed
  /// snapshot: identical, except the snapshot is expected to belong to
  /// `source` rather than to this server.  `snapshot_lsn` (the primary LSN
  /// the snapshot covers) becomes the durable replication watermark for
  /// `source`; when this replica has its own storage a checkpoint makes
  /// the restored books + watermark durable immediately (local journal
  /// records predating the restore are stale and compacted away).
  [[nodiscard]] util::Status restore_replica(const PrincipalName& source,
                                             const crypto::SymmetricKey& key,
                                             util::BytesView snapshot,
                                             std::uint64_t snapshot_lsn = 0);

  /// Number of restore_replica() bootstraps this process has performed —
  /// the watermark-resume tests assert this stays 0 on the resume path.
  [[nodiscard]] std::uint64_t replica_bootstraps() const {
    return replica_bootstraps_.load();
  }

  /// Adopts a (dead) peer bank's identity: checks drawn on `name` become
  /// locally drawable here, exactly as if they named this server.  The
  /// promoted survivor of a failover calls this so checks drawn on the
  /// old primary's *name* still clear (the dedup tables keyed on the
  /// check's own grantor+number keep retried collections exactly-once).
  /// Journaled (kIdentityAdopt) and snapshotted; idempotent.
  [[nodiscard]] util::Status adopt_identity(const PrincipalName& name);

  /// True if checks drawn on `name` settle locally (own name or adopted).
  [[nodiscard]] bool identity_adopted(const PrincipalName& name) const;

  /// Swaps the semi-sync replication barrier at runtime — the failover
  /// coordinator re-arms a promoted primary with a shipper for its new
  /// standby.  Thread-safe against concurrent handle() calls; in-flight
  /// requests finish against the barrier they loaded.  An empty function
  /// disarms.
  void set_replication_barrier(
      std::function<util::Status(std::uint64_t durable_lsn)> barrier);

  /// Highest LSN covered by a completed fsync (0 without storage): the
  /// shipping watermark — replication never sends a record the disk could
  /// still lose.
  [[nodiscard]] std::uint64_t journal_durable_lsn() const;

  /// Committed journal records with LSN >= `from_lsn`, capped at the
  /// durable watermark and `max_records`.  kNotFound when a checkpoint
  /// compacted records below `from_lsn` away — bootstrap the follower
  /// from latest_snapshot() instead.  kUnavailable without storage.
  [[nodiscard]] util::Result<storage::LogDir::TailRead>
  journal_read_committed(std::uint64_t from_lsn,
                         std::size_t max_records) const;

  /// Newest sealed on-disk snapshot (a standby's bootstrap payload).
  [[nodiscard]] util::Result<std::optional<storage::SnapshotStore::Loaded>>
  latest_snapshot() const;

  // ---- Rebalance / migration (DESIGN.md §5g) -----------------------------
  //
  // Driven by sharding::migrate_range in freeze -> export -> import (target)
  // -> map cutover -> evacuate order.  Every step is journaled on the server
  // it mutates and idempotent under the spec's migration_id, so a crashed
  // migration is re-driven from the top and completed steps no-op.

  /// Source: stops serving accounts in the spec's range (they answer
  /// kWrongShard) so the subsequent export is stable.  Journaled; idempotent.
  [[nodiscard]] util::Status migration_freeze(const MigrationSpec& spec);

  /// Source: portable state of every frozen in-range account (cashier and
  /// peer:* settlement accounts never migrate).  Requires the freeze.
  [[nodiscard]] util::Result<std::vector<MigratedAccount>> migration_export(
      const MigrationSpec& spec) const;

  /// Target: installs the exported accounts and their certified holds.
  /// Journaled as one kMigrateIn record; idempotent under migration_id
  /// (re-imports replay nothing — unless Config::enable_dedup is off, the
  /// chaos ablation that shows why the id tracking exists).
  [[nodiscard]] util::Status migration_import(
      const MigrationSpec& spec, const std::vector<MigratedAccount>& accounts);

  /// Source: deletes the migrated accounts and lifts the freeze.  Run only
  /// after the map cutover points the range at the target.  Journaled;
  /// idempotent.
  [[nodiscard]] util::Status migration_evacuate(const MigrationSpec& spec);

  /// True once migration_import(spec) has been applied here.
  [[nodiscard]] bool migration_applied(std::uint64_t migration_id) const;
  /// Number of ranges currently frozen for migration on this source.
  [[nodiscard]] std::size_t frozen_range_count() const;

  /// Value credited but not yet collected from peer servers.
  [[nodiscard]] std::int64_t uncollected_total() const;
  [[nodiscard]] std::uint64_t checks_cleared() const {
    return checks_cleared_.load();
  }
  [[nodiscard]] std::uint64_t checks_bounced() const {
    return checks_bounced_.load();
  }
  /// Requests answered from the dedup tables (duplicates / retries that
  /// did NOT move money again).
  [[nodiscard]] std::uint64_t deduped_replies() const {
    return deduped_replies_.load();
  }

  net::Envelope handle(const net::Envelope& request) override;

  /// A challenge never blocks: it journals nothing and its reply skips
  /// the replication barrier.  A balance query journals nothing either,
  /// but waits on the barrier while one is armed.  Everything else may
  /// commit, ship or call a peer bank.
  [[nodiscard]] bool may_block(net::MsgType type) const override;

  [[nodiscard]] const PrincipalName& name() const { return config_.name; }

 private:
  struct CertifiedHold {
    PrincipalName payor;
    std::string account;
    Currency currency;
    std::uint64_t amount = 0;
    util::TimePoint expires_at = 0;
  };
  struct Uncollected {
    std::string account;
    Currency currency;
    std::uint64_t amount = 0;
  };
  /// A completed operation's encoded reply payload, replayed on duplicate
  /// or retried requests until the underlying check expires.
  struct CompletedOp {
    util::Bytes reply_payload;
    util::TimePoint expires_at = 0;
  };
  /// (principal, check number): the key of every table below that
  /// remembers a check until it expires.
  using DedupKey = std::pair<PrincipalName, std::uint64_t>;
  using DedupTable = util::ExpiringTable<DedupKey, CompletedOp>;

  // The journal record payloads, one struct per JournalRecordType, are
  // defined in accounting_server.cpp, the only file that builds, applies
  // or replays them.

  /// Authenticates a request's identity proof against its challenge and
  /// request digest; returns the principal.
  [[nodiscard]] util::Result<PrincipalName> authenticate_(
      const core::PossessionProof& identity, std::uint64_t challenge_id,
      util::BytesView request_digest, util::TimePoint now);

  /// The handlers' shared prelude (state_mutex_ held): `account` must
  /// exist (kNotFound) and `who` must hold `right` on it
  /// (kPermissionDenied).
  [[nodiscard]] util::Result<Account*> authorized_account_(
      const std::string& account, const PrincipalName& who,
      const Operation& right);

  /// The type dispatch behind handle(); handle() wraps it with the
  /// storage-dead refusal and the group-commit barrier (no reply leaves
  /// before the fsync covering the records the handler appended).
  [[nodiscard]] net::Envelope handle_dispatch_(const net::Envelope& request);

  [[nodiscard]] net::Envelope handle_query_(const net::Envelope& request);
  [[nodiscard]] net::Envelope handle_transfer_(const net::Envelope& request);
  [[nodiscard]] net::Envelope handle_certify_(const net::Envelope& request);
  [[nodiscard]] net::Envelope handle_deposit_(const net::Envelope& request);
  [[nodiscard]] net::Envelope handle_cashier_(const net::Envelope& request);

  /// Settles a check we are the drawee of.
  [[nodiscard]] util::Result<DepositReplyPayload> settle_(
      const DepositPayload& req, const PrincipalName& presenter,
      util::TimePoint now);
  /// Collects a foreign check: credit locally (uncollected), endorse,
  /// forward; revert on bounce.
  [[nodiscard]] util::Result<DepositReplyPayload> collect_foreign_(
      const DepositPayload& req, util::TimePoint now);

  void purge_expired_holds_(util::TimePoint now);

  /// Shard gate: OK unless `account` is a client account this shard does
  /// not own (Config::shard) or one inside a range frozen for migration —
  /// both answer kWrongShard with the deciding map version in detail().
  /// Takes state_mutex_ itself; must NOT be called with it held.
  [[nodiscard]] util::Status shard_gate_(const std::string& account) const;

  /// Runs `body` under state_mutex_, then commits whatever it journaled
  /// (the barrier handle() runs, for the direct-call migration,
  /// replication and takeover APIs).
  template <typename Body>
  [[nodiscard]] util::Status journaled_call_(Body&& body);

  /// Commits the thread's pending group-commit LSN (no-op otherwise);
  /// marks the server storage-dead if the commit fails.  Call with
  /// state_mutex_ released.
  [[nodiscard]] util::Status commit_pending_();

  /// The stored reply of a completed op, counted as a dedup replay;
  /// nullopt on a miss or with dedup off.  state_mutex_ must be held.
  [[nodiscard]] std::optional<util::Bytes> replay_completed_(
      const DedupTable& table, const DedupKey& key);
  /// Records a completed op, purging expired entries and enforcing the
  /// capacity backstop.  state_mutex_ must be held.
  void record_completed_(DedupTable& table, DedupKey key,
                         util::Bytes reply_payload,
                         util::TimePoint expires_at, util::TimePoint now);

  /// Account lookup with state_mutex_ already held.
  [[nodiscard]] Account* find_account_(const std::string& local_name);
  /// Opens (or replaces) an account and returns it; state_mutex_ held.
  /// Only appliers (and the provisional credit) call this.
  Account& open_account_(const std::string& local_name,
                         const PrincipalName& owner, Balances initial = {});

  /// snapshot() with state_mutex_ already held (checkpoint() must seal
  /// and publish under one lock hold so no append slips in between).
  [[nodiscard]] util::Bytes snapshot_locked_(
      const crypto::SymmetricKey& key) const;

  /// Shared body of restore() / restore_replica(): `expected_server` is the
  /// name the snapshot must carry.
  [[nodiscard]] util::Status restore_(const crypto::SymmetricKey& key,
                                      util::BytesView snapshot,
                                      const PrincipalName& expected_server);

  /// Runs the loaded replication barrier for a reply that is about to
  /// leave: commits everything appended so far (commit_appended_()), then
  /// waits for standby acks of it.  Call with state_mutex_ released.
  [[nodiscard]] util::Status replication_barrier_(
      const std::function<util::Status(std::uint64_t)>& barrier);

  /// One group commit of every record appended so far, by any thread,
  /// through the shared barrier outside state_mutex_; returns the LSN it
  /// covered (0 without storage).  Marks the server storage-dead if the
  /// commit fails.  Call with state_mutex_ released.
  [[nodiscard]] util::Result<std::uint64_t> commit_appended_();

  /// THE route to a ledger mutation (state_mutex_ held): runs `record`'s
  /// applier and, if it succeeds, appends the record to the journal.  A
  /// refused record changes nothing and is not journaled.  See
  /// journal_append_() for what an append failure means.
  template <typename Record>
  [[nodiscard]] util::Status apply_and_journal_(const Record& record);

  /// Appends one typed record to the journal (state_mutex_ held).  No-op
  /// without storage; on failure marks the server storage-dead and
  /// returns the error — the caller turns it into an error reply and the
  /// mutation it covers is considered lost with the "process".
  template <typename Record>
  [[nodiscard]] util::Status journal_append_(const Record& record);

  /// The replay table (state_mutex_ held): decodes `record` by its type
  /// and runs that type's applier.  recover() runs it over the journal
  /// tail; the kReplApply applier runs it once for its inner record.
  [[nodiscard]] util::Status apply_record_locked_(
      const storage::JournalRecord& record, util::TimePoint now);
  /// One replay-table entry: decode a `Record`, then apply it.
  template <typename Record>
  [[nodiscard]] util::Status replay_(const storage::JournalRecord& record,
                                     util::TimePoint now);

  /// True when this server is the drawee of a check naming `server` —
  /// its own name, or one it adopted via identity takeover.  state_mutex_
  /// must be held.
  [[nodiscard]] bool is_local_drawee_locked_(
      const PrincipalName& server) const;

  /// Per-type appliers (state_mutex_ held): the in-memory effect of one
  /// record, shared by the live path and replay — one explicit
  /// specialization per record type.  Each either applies in full or
  /// refuses with the state untouched.  Settle/certify/foreign and
  /// migrate-in are idempotent against their dedup entry / migration id,
  /// so a record that survives in both a snapshot and the journal tail
  /// applies once.
  template <typename Record>
  [[nodiscard]] util::Status apply_(const Record& rec, util::TimePoint now);

  Config config_;
  core::ProxyVerifier verifier_;
  core::ChallengeRegistry challenges_;
  core::AcceptOnceCache accept_once_;
  /// Guards accounts_, routes_, certified_, uncollected_.  Held only for
  /// local state transitions — NEVER across the network call that collects
  /// a foreign check from a peer server (two banks collecting from each
  /// other must not deadlock, and a slow peer must not stall the node).
  mutable std::mutex state_mutex_;
  std::map<std::string, Account> accounts_;
  std::map<PrincipalName, PrincipalName> routes_;
  /// Outstanding certified checks keyed by (payor, check number).
  util::ExpiringTable<DedupKey, CertifiedHold> certified_;
  /// Credits pending collection keyed by (drawee server, check number).
  std::map<std::pair<PrincipalName, std::uint64_t>, Uncollected>
      uncollected_;
  /// Exactly-once replay tables (guarded by state_mutex_): completed
  /// deposits keyed by (check grantor, check number), completed
  /// certifications keyed by (payor, check number).  Snapshotted — unlike
  /// the time-windowed replay caches, these ARE the durable exactly-once
  /// log a restarted server needs to keep honoring retried operations.
  DedupTable completed_deposits_;
  DedupTable completed_certifies_;
  /// Active migration freezes on this source, keyed by migration id.
  /// Accounts in a frozen range answer kWrongShard until evacuation.
  std::map<std::uint64_t, MigrationSpec> frozen_;
  /// Migration ids already imported here (the exactly-once guard for
  /// kMigrateIn).  Snapshotted like the dedup tables.
  std::set<std::uint64_t> applied_migrations_;
  /// Peer bank names adopted via identity takeover (snapshotted).
  std::set<PrincipalName> adopted_identities_;
  /// Durable replication watermarks: source server -> highest source LSN
  /// applied here (snapshotted; advanced by the kReplApply applier).
  std::map<PrincipalName, std::uint64_t> repl_watermarks_;
  /// Bootstraps performed via restore_replica() (process-local counter).
  std::atomic<std::uint64_t> replica_bootstraps_{0};
  /// Live replication barrier (initialized from Config, swappable via
  /// set_replication_barrier).  handle() loads the shared_ptr under
  /// barrier_mutex_ and calls through its copy, so a failover re-arm
  /// never races an in-flight reply.
  mutable std::mutex barrier_mutex_;
  std::shared_ptr<const std::function<util::Status(std::uint64_t)>>
      barrier_;
  /// The write-ahead log; engaged by recover() when storage is on.
  /// Appends happen under state_mutex_.
  std::optional<storage::LogDir> log_;
  /// Registry listener token (journals revocation events); 0 = none
  /// registered.  Registered by recover() when both storage and a registry
  /// are configured, removed by the destructor.
  std::uint64_t revocation_listener_ = 0;
  std::atomic<bool> storage_dead_{false};
  /// Set by fence() when a promoted standby's epoch supersedes this
  /// server's; checked (and refused on) before any request is served.
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> checks_cleared_{0};
  std::atomic<std::uint64_t> checks_bounced_{0};
  std::atomic<std::uint64_t> deduped_replies_{0};
};

}  // namespace rproxy::accounting
