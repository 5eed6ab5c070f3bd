// Journal-shipping replication (DESIGN.md §5h): shipping + replay, the
// semi-synchronous barrier, snapshot bootstrap after compaction, epoch
// fencing, read-replica staleness, and the promotion ordering guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "storage/crash_point.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::testing::World;
using util::ErrorCode;

constexpr std::int64_t kInitial = 1000;

/// A primary with durable storage (kEveryRecord unless `tweak` says
/// otherwise), one standby replaying into a memory-only replica server,
/// and the shipper wired into the primary's semi-sync barrier (a no-op
/// until make_standby() creates the shipper).
struct ReplicaWorld {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey storage_key = crypto::SymmetricKey::generate();
  std::unique_ptr<AccountingServer> primary;
  std::unique_ptr<AccountingServer> replica_server;
  std::unique_ptr<StandbyReplayer> standby;
  std::unique_ptr<JournalShipper> shipper;
  bool semi_sync = false;

  explicit ReplicaWorld(
      bool with_barrier = false,
      const std::function<void(AccountingServer::Config&)>& tweak = {})
      : semi_sync(with_barrier) {
    world.add_principal("bank");
    world.add_principal("bankb");
    world.add_principal("alice");
    auto config = world.accounting_config("bank");
    config.storage_dir = tmp.sub("bank");
    config.storage_key = storage_key;
    config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
    if (tweak) tweak(config);
    if (semi_sync) {
      config.replication_barrier = [this](std::uint64_t lsn) {
        return shipper ? shipper->ship_until(lsn) : util::Status::ok();
      };
    }
    primary = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(primary->recover().is_ok());
    world.net.attach("bank", *primary);
  }

  /// `replica` defaults to a memory-only server.
  void make_standby(
      const std::function<void(StandbyReplayer::Config&)>& tweak = {},
      std::unique_ptr<AccountingServer> replica = nullptr) {
    replica_server =
        replica ? std::move(replica)
                : std::make_unique<AccountingServer>(
                      world.accounting_config("bankb"));
    StandbyReplayer::Config rc;
    rc.name = "bankb";
    rc.primary = "bank";
    rc.server = replica_server.get();
    rc.clock = &world.clock;
    rc.storage_key = storage_key;
    if (tweak) tweak(rc);
    standby = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach("bankb", *standby);
    JournalShipper::Config sc;
    sc.primary = primary.get();
    sc.net = &world.net;
    sc.standbys = {"bankb"};
    shipper = std::make_unique<JournalShipper>(std::move(sc));
  }

  void open(const std::string& account) {
    primary->open_account(account, "alice", Balances{{"usd", kInitial}});
  }

  [[nodiscard]] std::int64_t replica_balance(const std::string& account) {
    const auto* acct = replica_server->account(account);
    return acct == nullptr ? -1 : acct->balances().balance("usd");
  }
};

TEST(Replication, ShipsFramesAndReplaysThemThroughRecoveryAppliers) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 150).is_ok());

  rw.make_standby();
  const JournalShipper::Progress progress = rw.shipper->ship_once();
  EXPECT_TRUE(progress.all_reachable);
  EXPECT_FALSE(progress.fenced);
  EXPECT_EQ(progress.min_acked_lsn, rw.primary->journal_durable_lsn());
  EXPECT_EQ(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());
  EXPECT_EQ(rw.standby->applied_lsn(), rw.standby->received_lsn());
  EXPECT_EQ(rw.standby->apply_failures(), 0u);
  // The replayed state matches the primary's, mutation for mutation.
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 150);
  EXPECT_EQ(rw.replica_balance("a2"), kInitial + 150);
}

TEST(Replication, ShippedNeverExceedsDurableAndResendIsIdempotent) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  (void)rw.shipper->ship_once();
  ASSERT_GT(rw.standby->received_lsn(), 0u);
  EXPECT_LE(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());

  // Rewind the shipper's watermark: the next round re-sends frames the
  // standby already holds, which it must skip without re-applying.
  const std::int64_t before = rw.replica_balance("a1");
  rw.shipper->rewind("bankb", 0);
  (void)rw.shipper->ship_once();
  EXPECT_EQ(rw.replica_balance("a1"), before);
  EXPECT_EQ(rw.standby->apply_failures(), 0u);
  EXPECT_EQ(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());
}

TEST(Replication, SemiSyncBarrierWithholdsAcksWhileStandbyUnreachable) {
  ReplicaWorld rw(/*with_barrier=*/true);
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 10).is_ok());
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 10);

  // Partition the standby: the primary still applies, but no reply may be
  // acked until the records behind it replicate — the client sees failure.
  rw.world.net.fail_link("bank", "bankb");
  auto held = client.transfer("bank", "a1", "a2", "usd", 20);
  EXPECT_FALSE(held.is_ok());
  EXPECT_EQ(held.code(), ErrorCode::kUnavailable);
  // Reads are withheld too: an acked reply of any kind implies replication.
  EXPECT_FALSE(client.query("bank", "a1").is_ok());

  // Heal: shipping resumes and the standby converges on the un-acked
  // transfer, which was applied exactly once.
  rw.world.net.restore_link("bank", "bankb");
  (void)rw.shipper->ship_once();
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 30);
  auto ok = client.query("bank", "a1");
  ASSERT_TRUE(ok.is_ok()) << ok.status();
  EXPECT_EQ(ok.value().balances.balance("usd"), kInitial - 30);
}

TEST(Replication, BootstrapReseedsStandbyPastCompactedJournal) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 100).is_ok());
  // Checkpoint compacts the journal: the records a fresh standby needs are
  // gone, so shipping must fall back to the sealed snapshot.
  ASSERT_TRUE(rw.primary->checkpoint().is_ok());
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 25).is_ok());

  rw.make_standby();
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());
  EXPECT_EQ(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 125);
  EXPECT_EQ(rw.replica_balance("a2"), kInitial + 125);
}

TEST(Replication, PromotionFencesTheOldPrimary) {
  ReplicaWorld rw(/*with_barrier=*/true);
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 40).is_ok());

  ASSERT_TRUE(rw.standby->promote().is_ok());
  EXPECT_TRUE(rw.standby->promoted());
  EXPECT_EQ(rw.standby->epoch(), 2u);

  // The deposed primary's next barrier hits kFenced: the reply is
  // withheld, the primary fences itself, and every later request bounces.
  auto fenced = client.transfer("bank", "a1", "a2", "usd", 5);
  EXPECT_FALSE(fenced.is_ok());
  EXPECT_EQ(fenced.code(), ErrorCode::kFenced);
  EXPECT_TRUE(rw.primary->fenced());
  EXPECT_TRUE(rw.shipper->fenced());
  auto after = client.transfer("bank", "a1", "a2", "usd", 5);
  EXPECT_EQ(after.code(), ErrorCode::kUnavailable);

  // The promoted standby serves the replicated state under its own name.
  auto reply = client.query("bankb", "a1");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().balances.balance("usd"), kInitial - 40);
}

TEST(Replication, DeposedPrimaryAnswersReadsOfAckedStateUntilFenced) {
  ReplicaWorld rw(/*with_barrier=*/true);
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 10).is_ok());

  // Cut off with nothing left to ship: a reply whose records every standby
  // already acked is released; no round could add to what they hold.
  rw.world.net.fail_link("bank", "bankb");
  auto answered = client.query("bank", "a1");
  ASSERT_TRUE(answered.is_ok()) << answered.status();
  EXPECT_EQ(answered.value().balances.balance("usd"), kInitial - 10);

  // The standby promotes behind the cut and moves on.  Healed, the deposed
  // primary still answers without a round trip: it has not heard of the
  // promotion, and its answer is stale.
  ASSERT_TRUE(rw.standby->promote().is_ok());
  ASSERT_TRUE(client.transfer("bankb", "a1", "a2", "usd", 5).is_ok());
  rw.world.net.restore_link("bank", "bankb");
  auto stale = client.query("bank", "a1");
  ASSERT_TRUE(stale.is_ok()) << stale.status();
  EXPECT_EQ(stale.value().balances.balance("usd"), kInitial - 10);
  EXPECT_FALSE(rw.primary->fenced());

  // The next heartbeat meets the newer epoch: the primary fences itself
  // and answers nothing more.
  EXPECT_TRUE(rw.shipper->ship_once().fenced);
  EXPECT_TRUE(rw.primary->fenced());
  EXPECT_EQ(client.query("bank", "a1").code(), ErrorCode::kUnavailable);
}

TEST(Replication, ReplicatedDedupMakesFailoverExactlyOnce) {
  ReplicaWorld rw(/*with_barrier=*/true);
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();

  // Settle a check at the primary; the dedup entry rides the journal.
  const accounting::Check check = accounting::write_check(
      "alice", rw.world.principal("alice").identity, AccountId{"bank", "a1"},
      "alice", "usd", 60, 31337, rw.world.clock.now(), util::kHour);
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.endorse_and_deposit("bank", check, "a2").is_ok());

  ASSERT_TRUE(rw.standby->promote().is_ok());
  // A client that never saw the ack retries the SAME numbered check at the
  // promoted standby: the replicated dedup table replays the original
  // settlement instead of moving the money twice.
  auto retried = client.endorse_and_deposit("bankb", check, "a2");
  ASSERT_TRUE(retried.is_ok()) << retried.status();
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 60);
  EXPECT_EQ(rw.replica_balance("a2"), kInitial + 60);
}

TEST(Replication, HeartbeatTimeoutPromotesOnlyAfterSilence) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.make_standby();
  (void)rw.shipper->ship_once();

  // Heard from the primary just now: no promotion within the window.
  auto early = rw.standby->maybe_promote();
  ASSERT_TRUE(early.is_ok());
  EXPECT_FALSE(early.value());
  rw.world.clock.advance(1 * util::kSecond);
  auto still = rw.standby->maybe_promote();
  ASSERT_TRUE(still.is_ok());
  EXPECT_FALSE(still.value());

  // Silence past timeout + jitter: the standby takes over.
  rw.world.clock.advance(5 * util::kSecond);
  auto promoted = rw.standby->maybe_promote();
  ASSERT_TRUE(promoted.is_ok());
  EXPECT_TRUE(promoted.value());
  EXPECT_TRUE(rw.standby->promoted());
}

// ---- Read replicas (staleness bound) --------------------------------------

TEST(Replication, ReadReplicaServesQueriesButRefusesWrites) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());

  auto client = rw.world.accounting_client("alice");
  auto reply = client.query("bankb", "a1");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().balances.balance("usd"), kInitial);

  auto write = client.transfer("bankb", "a1", "a2", "usd", 10);
  EXPECT_FALSE(write.is_ok());
  EXPECT_EQ(write.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(rw.replica_balance("a1"), kInitial);
}

TEST(Replication, LaggingReplicaReturnsAnswerTrueAtItsWatermark) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());

  // Mutate the primary WITHOUT shipping: the replica lags, and (within its
  // staleness bound) answers with the balance that was true at its applied
  // LSN — a consistent prefix, never an invented value.
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 500).is_ok());
  auto stale = client.query("bankb", "a1");
  ASSERT_TRUE(stale.is_ok()) << stale.status();
  EXPECT_EQ(stale.value().balances.balance("usd"), kInitial);

  (void)rw.shipper->ship_once();
  auto fresh = client.query("bankb", "a1");
  ASSERT_TRUE(fresh.is_ok()) << fresh.status();
  EXPECT_EQ(fresh.value().balances.balance("usd"), kInitial - 500);
}

TEST(Replication, StalenessBoundRefusesReadsPastTheLimit) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  // Warm standby (queues frames, never applies) with a zero-lag bound:
  // the received/applied gap is fully observable.
  rw.make_standby([](StandbyReplayer::Config& rc) {
    rc.apply_on_receive = false;
    rc.staleness_limit_records = 0;
  });
  (void)rw.shipper->ship_once();
  ASSERT_GT(rw.standby->received_lsn(), 0u);
  ASSERT_EQ(rw.standby->applied_lsn(), 0u);

  auto client = rw.world.accounting_client("alice");
  auto refused = client.query("bankb", "a1");
  EXPECT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), ErrorCode::kUnavailable);

  // Catching up re-opens the replica for reads.
  ASSERT_TRUE(rw.standby->apply_pending().is_ok());
  auto served = client.query("bankb", "a1");
  ASSERT_TRUE(served.is_ok()) << served.status();
  EXPECT_EQ(served.value().balances.balance("usd"), kInitial);
}

TEST(Replication, PromotedReplicaRefusesAllTrafficUntilCaughtUp) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby(
      [](StandbyReplayer::Config& rc) { rc.apply_on_receive = false; });
  (void)rw.shipper->ship_once();
  ASSERT_GT(rw.standby->received_lsn(), rw.standby->applied_lsn());

  // Promotion ordering guarantee: with frames received but unapplied,
  // even reads are refused — nothing served may predate the promoted
  // state.
  ASSERT_TRUE(rw.standby->promote().is_ok());
  auto client = rw.world.accounting_client("alice");
  auto read = client.query("bankb", "a1");
  EXPECT_FALSE(read.is_ok());
  EXPECT_EQ(read.code(), ErrorCode::kUnavailable);
  auto write = client.transfer("bankb", "a1", "a2", "usd", 10);
  EXPECT_FALSE(write.is_ok());

  ASSERT_TRUE(rw.standby->apply_pending().is_ok());
  auto served = client.query("bankb", "a1");
  ASSERT_TRUE(served.is_ok()) << served.status();
  EXPECT_EQ(served.value().balances.balance("usd"), kInitial);
  ASSERT_TRUE(client.transfer("bankb", "a1", "a2", "usd", 10).is_ok());
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 10);
}

TEST(Replication, StaleEpochShipIsFencedOff) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.make_standby([](StandbyReplayer::Config& rc) { rc.epoch = 2; });
  // The shipper still believes epoch 1; the standby already moved on.
  const JournalShipper::Progress progress = rw.shipper->ship_once();
  EXPECT_TRUE(progress.fenced);
  EXPECT_TRUE(rw.shipper->fenced());
  EXPECT_TRUE(rw.primary->fenced());
}

/// The primary's committed journal: [open a1, open a2, transfer a1->a2].
std::vector<storage::JournalRecord> opened_and_transferred(ReplicaWorld& rw) {
  rw.open("a1");
  rw.open("a2");
  auto client = rw.world.accounting_client("alice");
  EXPECT_TRUE(client.transfer("bank", "a1", "a2", "usd", 150).is_ok());
  auto tail = rw.primary->journal_read_committed(1, 16);
  EXPECT_TRUE(tail.is_ok());
  EXPECT_EQ(tail.value().records.size(), 3u);
  return tail.value().records;
}

/// A kReplApply frame around `inner`, encoded by hand from the journal
/// layout (source, source LSN, inner type, inner payload).
storage::JournalRecord repl_wrapped(const storage::JournalRecord& inner,
                                    std::uint64_t source_lsn) {
  wire::Encoder enc;
  enc.str("bank");
  enc.u64(source_lsn);
  enc.u16(inner.type);
  enc.bytes(inner.payload);
  return storage::JournalRecord{
      inner.lsn,
      static_cast<std::uint16_t>(accounting::JournalRecordType::kReplApply),
      enc.take()};
}

TEST(Replication, NestedReplicatedRecordIsRefusedWithStateUntouched) {
  ReplicaWorld rw;
  const auto records = opened_and_transferred(rw);
  AccountingServer replica(rw.world.accounting_config("bankb"));
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(replica.apply_replicated(records[i], "bank", i + 1).is_ok());
  }

  // One level of wrapping is a standby-of-a-standby and applies; a wrapper
  // inside a wrapper is never written by a server, so it is hostile.
  const storage::JournalRecord nested =
      repl_wrapped(repl_wrapped(records[2], 3), 3);
  EXPECT_EQ(replica.apply_replicated(nested, "bank", 3).code(),
            ErrorCode::kParseError);
  EXPECT_EQ(replica.account("a1")->balances().balance("usd"), kInitial);
  EXPECT_EQ(replica.account("a2")->balances().balance("usd"), kInitial);
  EXPECT_EQ(replica.replication_watermark("bank"), 2u);

  ASSERT_TRUE(
      replica.apply_replicated(repl_wrapped(records[2], 3), "bank", 3)
          .is_ok());
  EXPECT_EQ(replica.account("a1")->balances().balance("usd"), kInitial - 150);
  EXPECT_EQ(replica.replication_watermark("bank"), 3u);
}

TEST(Replication, StorageDeadReplicaRefusesToApply) {
  ReplicaWorld rw;
  const auto records = opened_and_transferred(rw);
  storage::CrashPoint crash;
  auto config = rw.world.accounting_config("bankb");
  config.storage_dir = rw.tmp.sub("bankb");
  config.storage_key = rw.storage_key;
  config.crash_point = &crash;
  AccountingServer replica(std::move(config));
  ASSERT_TRUE(replica.recover().is_ok());

  // The replica's disk dies on its first local append.
  storage::CrashPlan plan;
  plan.min_appends = 1;
  plan.max_appends = 1;
  crash.arm(plan);
  EXPECT_FALSE(replica.apply_replicated(records[0], "bank", 1).is_ok());
  ASSERT_TRUE(replica.storage_dead());

  // A replica that can no longer persist must not go on applying (and so
  // advancing the watermark the shipper's barrier counts) in memory.
  const std::uint64_t mark = replica.replication_watermark("bank");
  EXPECT_EQ(replica.apply_replicated(records[1], "bank", 2).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(replica.account("a2"), nullptr);
  EXPECT_EQ(replica.replication_watermark("bank"), mark);
}

TEST(Replication, StorageDeadStandbyWithholdsItsAckFromTheBarrier) {
  ReplicaWorld rw(/*with_barrier=*/true);
  rw.open("a1");
  rw.open("a2");
  // The replica above, now behind a StandbyReplayer and the primary's
  // semi-sync barrier.
  storage::CrashPoint crash;
  auto config = rw.world.accounting_config("bankb");
  config.storage_dir = rw.tmp.sub("bankb");
  config.storage_key = rw.storage_key;
  config.crash_point = &crash;
  auto replica = std::make_unique<AccountingServer>(std::move(config));
  ASSERT_TRUE(replica->recover().is_ok());
  rw.make_standby({}, std::move(replica));

  // The replica's disk dies on its first local append: the first shipped
  // frame.  Neither that frame nor any later one may be acked.
  storage::CrashPlan plan;
  plan.min_appends = 1;
  plan.max_appends = 1;
  crash.arm(plan);
  auto client = rw.world.accounting_client("alice");
  EXPECT_EQ(client.transfer("bank", "a1", "a2", "usd", 10).code(),
            ErrorCode::kUnavailable);
  ASSERT_TRUE(rw.replica_server->storage_dead());
  EXPECT_GT(rw.primary->journal_durable_lsn(), 0u);
  EXPECT_EQ(rw.shipper->acked_lsn("bankb"), 0u);

  // Later ships, heartbeats included, are refused too.
  const JournalShipper::Progress progress = rw.shipper->ship_once();
  EXPECT_FALSE(progress.all_reachable);
  EXPECT_EQ(progress.min_acked_lsn, 0u);
  EXPECT_EQ(rw.shipper->acked_lsn("bankb"), 0u);
}

// ---- The barrier under concurrency -----------------------------------------

/// Forwards to a node, counting the ship requests it sees.
class CountingShips final : public net::Node {
 public:
  explicit CountingShips(net::Node& standby) : standby_(standby) {}
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kReplShip) ships.fetch_add(1);
    return standby_.handle(request);
  }
  std::atomic<int> ships{0};

 private:
  net::Node& standby_;
};

TEST(Replication, ConcurrentWaitersOnADurableLsnShareOneShip) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  CountingShips counting(*rw.standby);
  rw.world.net.attach("bankb", counting);
  const std::uint64_t target = rw.primary->journal_durable_lsn();
  ASSERT_GT(target, 0u);

  // However they interleave, the waiters either park on the one round in
  // flight or find the target acked when they arrive.
  constexpr int kWaiters = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      if (!rw.shipper->ship_until(target).is_ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counting.ships.load(), 1);
  EXPECT_EQ(rw.standby->received_lsn(), target);

  // Already acked: nothing to send.
  ASSERT_TRUE(rw.shipper->ship_until(target).is_ok());
  EXPECT_EQ(counting.ships.load(), 1);
}

TEST(Replication, ConcurrentWaitersAllFailWhileTheStandbyIsUnreachable) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.make_standby();
  const std::uint64_t target = rw.primary->journal_durable_lsn();
  rw.world.net.fail_link("bank", "bankb");

  // Every failed round counts against each waiter that saw it end, so no
  // waiter outlasts max_attempts rounds however the others interleave.
  constexpr int kWaiters = 4;
  std::atomic<int> unavailable{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      if (rw.shipper->ship_until(target).code() == ErrorCode::kUnavailable) {
        unavailable.fetch_add(1);
      }
    });
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(unavailable.load(), kWaiters);
  EXPECT_EQ(rw.shipper->acked_lsn("bankb"), 0u);

  rw.world.net.restore_link("bank", "bankb");
  ASSERT_TRUE(rw.shipper->ship_until(target).is_ok());
  EXPECT_EQ(rw.standby->received_lsn(), target);
}

// A durable frame that fails its CRC can never be shipped, so the barrier
// reports it (naming its LSN) after the one round that read it, instead
// of sending heartbeats until max_attempts runs out.
TEST(Replication, CorruptDurableFrameFailsTheBarrierWithinOneRound) {
  ReplicaWorld rw;
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  ASSERT_TRUE(rw.shipper->ship_until(rw.primary->journal_durable_lsn())
                  .is_ok());
  CountingShips counting(*rw.standby);
  rw.world.net.attach("bankb", counting);

  std::string journal;
  for (const auto& entry :
       std::filesystem::directory_iterator(rw.tmp.sub("bank"))) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 && name > journal) journal = name;
  }
  ASSERT_FALSE(journal.empty());
  const std::string path = rw.tmp.sub("bank") + "/" + journal;
  const std::uintmax_t frame_offset = std::filesystem::file_size(path);
  const std::uint64_t bad_lsn = rw.primary->journal_durable_lsn() + 1;
  rw.open("a3");  // kEveryRecord: durable once open_account returns
  ASSERT_EQ(rw.primary->journal_durable_lsn(), bad_lsn);
  {
    // Flip a bit of the new frame's CRC field behind the writer's back.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(frame_offset + 6));
    const char byte = static_cast<char>(file.get() ^ 0x01);
    file.seekp(static_cast<std::streamoff>(frame_offset + 6));
    file.put(byte);
  }

  const util::Status status = rw.shipper->ship_until(bad_lsn);
  EXPECT_EQ(status.code(), ErrorCode::kInternal) << status;
  EXPECT_NE(status.message().find("LSN " + std::to_string(bad_lsn)),
            std::string::npos)
      << status;
  // The failed read sent nothing, not max_attempts empty heartbeats.
  EXPECT_EQ(counting.ships.load(), 0);
  EXPECT_EQ(rw.shipper->acked_lsn("bankb"), bad_lsn - 1);
}

TEST(Replication, GroupBarrierIsTheOnlyFsyncUnderConcurrentWriters) {
  storage::CrashPoint crash;  // inert: only counts the fsyncs it admits
  ReplicaWorld rw(/*with_barrier=*/true, [&](AccountingServer::Config& c) {
    c.fsync_policy = storage::FsyncPolicy::kGroup;
    c.crash_point = &crash;
  });
  rw.open("a1");
  rw.open("a2");
  rw.make_standby();
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());
  const std::uint64_t syncs_before = crash.syncs_seen();
  const std::uint64_t group_before = rw.primary->journal_group_stats().fsyncs;

  // Each writer reaches the bank over a SimNet of its own, so the
  // handlers overlap however the shared net schedules round trips.
  constexpr int kWriters = 4;
  constexpr int kTransfers = 25;
  const rproxy::testing::Principal& alice = rw.world.principal("alice");
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      net::SimNet front(rw.world.clock);
      front.attach("bank", *rw.primary);
      accounting::AccountingClient client(front, rw.world.clock, "alice",
                                          alice.cert, alice.identity);
      for (int i = 0; i < kTransfers; ++i) {
        const bool forward = (w + i) % 2 == 0;
        if (!client
                 .transfer("bank", forward ? "a1" : "a2",
                           forward ? "a2" : "a1", "usd", 1)
                 .is_ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // No fsync happened outside a group barrier: every one the disk saw was
  // a barrier's, which concurrent committers and barriers could share.
  const std::uint64_t group_fsyncs =
      rw.primary->journal_group_stats().fsyncs - group_before;
  EXPECT_GT(group_fsyncs, 0u);
  EXPECT_EQ(crash.syncs_seen() - syncs_before, group_fsyncs);
  EXPECT_EQ(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());
  EXPECT_EQ(rw.replica_balance("a1") + rw.replica_balance("a2"),
            2 * kInitial);
  EXPECT_EQ(rw.replica_balance("a1"),
            rw.primary->account("a1")->balances().balance("usd"));
}

/// The bank's attachment: just before the bank handles a balance query,
/// another party appends a record and leaves it uncommitted — an
/// open_account setup call, which journals without a commit.
class AppendBeforeQuery final : public net::Node {
 public:
  explicit AppendBeforeQuery(AccountingServer& bank) : bank_(bank) {}
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kAccountQuery) {
      bank_.open_account("m1", "mallory", Balances{{"usd", 1}});
      pending = bank_.journal_next_lsn() - 1;
      durable_at_query = bank_.journal_durable_lsn();
    }
    return bank_.handle(request);
  }
  std::uint64_t pending = 0;
  std::uint64_t durable_at_query = 0;

 private:
  AccountingServer& bank_;
};

TEST(Replication, QueryReplyWaitsForOtherHandlersUncommittedRecords) {
  ReplicaWorld rw(/*with_barrier=*/true, [](AccountingServer::Config& c) {
    c.fsync_policy = storage::FsyncPolicy::kGroup;
  });
  rw.open("a1");
  rw.make_standby();
  AppendBeforeQuery front(*rw.primary);
  rw.world.net.attach("bank", front);

  auto client = rw.world.accounting_client("alice");
  auto reply = client.query("bank", "a1");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  ASSERT_LT(front.durable_at_query, front.pending);
  // The reply may have seen the record, so it left only once the record
  // was durable and every standby held it.
  EXPECT_GE(rw.primary->journal_durable_lsn(), front.pending);
  EXPECT_GE(rw.shipper->acked_lsn("bankb"), front.pending);
  EXPECT_GE(rw.standby->received_lsn(), front.pending);
}

// A challenge reply carries a nonce and nothing of the ledger, so it
// skips the barrier: another party's uncommitted record stays where it
// is.  The query that follows may see the record, so it still waits for
// it to be durable and on every standby.
TEST(Replication, ChallengeReplySkipsTheBarrierAndTheQueryAfterItWaits) {
  ReplicaWorld rw(/*with_barrier=*/true, [](AccountingServer::Config& c) {
    c.fsync_policy = storage::FsyncPolicy::kGroup;
  });
  rw.open("a1");
  rw.make_standby();
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());

  rw.primary->open_account("m1", "mallory", Balances{{"usd", 1}});
  const std::uint64_t pending = rw.primary->journal_next_lsn() - 1;
  const std::uint64_t durable = rw.primary->journal_durable_lsn();
  const std::uint64_t acked = rw.shipper->acked_lsn("bankb");
  ASSERT_LT(durable, pending);

  auto challenge = rw.world.net.rpc(
      "alice", "bank", net::MsgType::kPresentChallengeRequest,
      wire::encode_to_bytes(core::ChallengeRequest{}));
  ASSERT_TRUE(challenge.is_ok()) << challenge.status();
  ASSERT_EQ(challenge.value().type, net::MsgType::kPresentChallengeReply);
  EXPECT_EQ(rw.primary->journal_durable_lsn(), durable);
  EXPECT_EQ(rw.shipper->acked_lsn("bankb"), acked);

  auto client = rw.world.accounting_client("alice");
  auto reply = client.query("bank", "a1");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_GE(rw.primary->journal_durable_lsn(), pending);
  EXPECT_GE(rw.shipper->acked_lsn("bankb"), pending);
  EXPECT_GE(rw.standby->received_lsn(), pending);
}

}  // namespace
}  // namespace rproxy
