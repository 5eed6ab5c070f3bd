// Self-healing failover (DESIGN.md §5h): the FailoverCoordinator's full
// heal loop — identity takeover, loser re-subscription, automatic standby
// re-provisioning, barrier re-arm — plus the durable standby watermark
// that lets a RESTARTED standby resume shipping without a snapshot
// re-bootstrap (and the torn-append schedule the watermark guard heals).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/failover.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "storage/crash_point.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::FailoverCoordinator;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::testing::World;
using util::ErrorCode;

constexpr std::int64_t kInitial = 1000;

/// A durable primary ("bank") with one or two durable hot standbys, a
/// coordinator driving their failure detectors, and a provision factory
/// that boots replacements on demand.  Every server shares one storage key
/// so bootstrap snapshots unseal anywhere.
struct HealWorld {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  storage::CrashPoint crash;
  std::unique_ptr<AccountingServer> primary;
  std::vector<std::unique_ptr<AccountingServer>> replica_servers;
  std::vector<std::unique_ptr<StandbyReplayer>> replayers;
  std::shared_ptr<JournalShipper> shipper;
  std::unique_ptr<FailoverCoordinator> coordinator;
  int provisioned = 0;

  explicit HealWorld(int standbys) {
    world.add_principal("bank");
    world.add_principal("alice");
    auto config = world.accounting_config("bank");
    config.storage_dir = tmp.sub("bank");
    config.storage_key = key;
    config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
    config.crash_point = &crash;
    primary = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(primary->recover().is_ok());
    world.net.attach("bank", *primary);
    primary->open_account("a1", "alice", Balances{{"usd", kInitial}});
    primary->open_account("a2", "alice", Balances{{"usd", kInitial}});

    std::vector<PrincipalName> names;
    for (int i = 0; i < standbys; ++i) {
      const std::string name = "bank-s" + std::to_string(i + 1);
      add_standby(name, "bank", /*epoch=*/1);
      names.push_back(name);
    }
    JournalShipper::Config sc;
    sc.primary = primary.get();
    sc.net = &world.net;
    sc.standbys = names;
    shipper = std::make_shared<JournalShipper>(std::move(sc));
    auto barrier_shipper = shipper;
    primary->set_replication_barrier([barrier_shipper](std::uint64_t lsn) {
      return barrier_shipper->ship_until(lsn);
    });
    // Bring-up ends with a ship, so the opened accounts are on every
    // standby before the first request: setup calls reply to no one, and
    // a challenge reply (the first a client gets) skips the barrier.
    EXPECT_TRUE(shipper->ship_until(primary->journal_durable_lsn()).is_ok());

    FailoverCoordinator::Config cc;
    cc.net = &world.net;
    cc.clock = &world.clock;
    cc.provision = [this](const PrincipalName& new_primary,
                          std::uint64_t epoch) {
      provisioned += 1;
      const std::string name = "bank-p" + std::to_string(provisioned);
      world.add_principal(name);
      return add_standby(name, new_primary, epoch);
    };
    coordinator = std::make_unique<FailoverCoordinator>(std::move(cc));
    std::vector<StandbyReplayer*> group;
    for (auto& r : replayers) group.push_back(r.get());
    coordinator->adopt_group(primary.get(), shipper, std::move(group));
  }

  StandbyReplayer* add_standby(const std::string& name,
                               const PrincipalName& primary_name,
                               std::uint64_t epoch) {
    world.add_principal(name);
    auto config = world.accounting_config(name);
    config.storage_dir = tmp.sub(name);
    config.storage_key = key;
    auto server = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(server->recover().is_ok());
    StandbyReplayer::Config rc;
    rc.name = name;
    rc.primary = primary_name;
    rc.server = server.get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    rc.epoch = epoch;
    rc.jitter_seed = replayers.size() + 1;
    auto replayer = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach(name, *replayer);
    replica_servers.push_back(std::move(server));
    replayers.push_back(std::move(replayer));
    return replayers.back().get();
  }

  /// Kills the primary's journal on its next append (a transfer that then
  /// fails) and drives coordinator ticks until a standby takes over and
  /// the heal completes.
  void kill_primary_and_heal(std::uint64_t target_generation) {
    storage::CrashPlan plan;
    plan.seed = 7;
    plan.min_appends = 1;
    plan.max_appends = 1;
    crash.arm(plan);
    auto client = world.accounting_client("alice");
    EXPECT_FALSE(client.transfer("bank", "a1", "a2", "usd", 1).is_ok());
    EXPECT_TRUE(primary->storage_dead());

    for (int i = 0;
         i < 12 && coordinator->generations() < target_generation; ++i) {
      world.clock.advance(700 * util::kMillisecond);
      auto tick = coordinator->tick();
      ASSERT_TRUE(tick.is_ok()) << tick.status();
    }
    ASSERT_EQ(coordinator->generations(), target_generation)
        << "no standby promoted after primary silence";
  }

  [[nodiscard]] std::int64_t balance_at(AccountingServer& server,
                                        const std::string& account) {
    const auto* acct = server.account(account);
    return acct == nullptr ? -1 : acct->balances().balance("usd");
  }
};

TEST(Failover, HealReprovisionsAStandbyAndReArmsTheBarrier) {
  HealWorld w(/*standbys=*/1);
  auto client = w.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 100).is_ok());

  w.kill_primary_and_heal(1);
  EXPECT_EQ(w.coordinator->primary_name(), "bank-s1");
  EXPECT_EQ(w.provisioned, 1);
  ASSERT_EQ(w.coordinator->standbys().size(), 1u);
  EXPECT_EQ(w.coordinator->standbys()[0]->name(), "bank-p1");

  // The replacement bootstrapped from the winner's post-takeover snapshot:
  // the acked state (including the pre-failover transfer) is already there.
  AccountingServer& replacement = *w.replica_servers.back();
  EXPECT_EQ(w.balance_at(replacement, "a1"), kInitial - 100);

  // The re-armed semi-sync barrier makes the NEW primary's acks imply
  // replication: a transfer acked at bank-s1 must be visible at bank-p1.
  ASSERT_TRUE(client.transfer("bank-s1", "a1", "a2", "usd", 30).is_ok());
  EXPECT_EQ(w.balance_at(replacement, "a1"), kInitial - 130);
  EXPECT_EQ(w.balance_at(replacement, "a2"), kInitial + 130);

  // And the barrier has teeth: partition the replacement and the winner
  // withholds acks, exactly like the original primary did.
  w.world.net.fail_link("bank-s1", "bank-p1");
  auto held = client.transfer("bank-s1", "a1", "a2", "usd", 5);
  EXPECT_FALSE(held.is_ok());
  EXPECT_EQ(held.code(), ErrorCode::kUnavailable);
}

TEST(Failover, ChecksDrawnOnTheDeadPrimarysNameClearAtTheSuccessor) {
  HealWorld w(/*standbys=*/1);
  // Drawn on "bank" BEFORE the failure, never presented to it.
  const accounting::Check check = accounting::write_check(
      "alice", w.world.principal("alice").identity, AccountId{"bank", "a1"},
      "alice", "usd", 75, 4242, w.world.clock.now(), util::kHour);

  w.kill_primary_and_heal(1);
  EXPECT_TRUE(w.replayers[0]->server().identity_adopted("bank"));

  // The successor settles the dead name's paper locally — no clearing
  // chain toward a corpse — and the dedup table keeps a retry exactly-once.
  auto client = w.world.accounting_client("alice");
  auto cleared = client.endorse_and_deposit("bank-s1", check, "a2");
  ASSERT_TRUE(cleared.is_ok()) << cleared.status();
  auto retried = client.endorse_and_deposit("bank-s1", check, "a2");
  ASSERT_TRUE(retried.is_ok()) << retried.status();
  AccountingServer& winner = w.replayers[0]->server();
  EXPECT_EQ(w.balance_at(winner, "a1"), kInitial - 75);
  EXPECT_EQ(w.balance_at(winner, "a2"), kInitial + 75);
  EXPECT_EQ(winner.uncollected_total(), 0);
}

TEST(Failover, LoserOfThePromotionRaceResubscribesToTheWinner) {
  HealWorld w(/*standbys=*/2);
  auto client = w.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 200).is_ok());

  w.kill_primary_and_heal(1);
  StandbyReplayer* winner = nullptr;
  StandbyReplayer* loser = nullptr;
  for (int i = 0; i < 2; ++i) {
    (w.replayers[i]->promoted() ? winner : loser) = w.replayers[i].get();
  }
  ASSERT_NE(winner, nullptr);
  ASSERT_NE(loser, nullptr);
  EXPECT_EQ(w.coordinator->primary_name(), winner->name());

  // The loser follows the winner now, and the heal's seeding round already
  // answered its needs_bootstrap with a snapshot restore.
  EXPECT_EQ(loser->primary(), winner->name());
  EXPECT_FALSE(loser->needs_bootstrap());
  EXPECT_FALSE(loser->promoted());
  EXPECT_GE(loser->epoch(), winner->epoch());

  // Losers and the replacement both track the new primary's writes.
  ASSERT_TRUE(client.transfer(winner->name(), "a1", "a2", "usd", 40).is_ok());
  EXPECT_EQ(w.balance_at(loser->server(), "a1"), kInitial - 240);
  EXPECT_EQ(w.balance_at(*w.replica_servers.back(), "a1"), kInitial - 240);
  EXPECT_EQ(loser->apply_failures(), 0u);
}

// ---- Durable standby watermarks (restart without re-bootstrap) ------------

/// Primary + one durable standby, built so the standby can be torn down
/// and rebooted from its own journal.
struct RestartWorld {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  std::unique_ptr<AccountingServer> primary;
  std::unique_ptr<AccountingServer> replica_server;
  std::unique_ptr<StandbyReplayer> standby;
  std::unique_ptr<JournalShipper> shipper;
  storage::CrashPoint replica_crash;

  RestartWorld() {
    world.add_principal("bank");
    world.add_principal("bankb");
    world.add_principal("alice");
    auto config = world.accounting_config("bank");
    config.storage_dir = tmp.sub("bank");
    config.storage_key = key;
    config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
    primary = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(primary->recover().is_ok());
    world.net.attach("bank", *primary);
    primary->open_account("a1", "alice", Balances{{"usd", kInitial}});
    primary->open_account("a2", "alice", Balances{{"usd", kInitial}});
    boot_standby(/*with_crash=*/false);
  }

  /// (Re)boots the replica server from its storage dir and wraps a fresh
  /// replayer + shipper around it, as a standby restart would.
  void boot_standby(bool with_crash) {
    if (standby) world.net.detach("bankb");
    auto config = world.accounting_config("bankb");
    config.storage_dir = tmp.sub("bankb");
    config.storage_key = key;
    config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
    if (with_crash) config.crash_point = &replica_crash;
    replica_server = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(replica_server->recover().is_ok());
    StandbyReplayer::Config rc;
    rc.name = "bankb";
    rc.primary = "bank";
    rc.server = replica_server.get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    standby = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach("bankb", *standby);
    JournalShipper::Config sc;
    sc.primary = primary.get();
    sc.net = &world.net;
    sc.standbys = {"bankb"};
    shipper = std::make_unique<JournalShipper>(std::move(sc));
  }

  [[nodiscard]] std::int64_t replica_balance(const std::string& account) {
    const auto* acct = replica_server->account(account);
    return acct == nullptr ? -1 : acct->balances().balance("usd");
  }
};

TEST(Failover, RestartedStandbyResumesFromItsDurableWatermark) {
  RestartWorld rw;
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 150).is_ok());
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());
  const std::uint64_t mark = rw.standby->applied_lsn();
  ASSERT_GT(mark, 0u);

  // Restart: the new replayer seeds its watermark from the journaled
  // kReplApply frames, so shipping resumes mid-stream — the bootstrap
  // counter proves no snapshot restore happened.
  rw.boot_standby(/*with_crash=*/false);
  EXPECT_EQ(rw.standby->received_lsn(), mark);
  EXPECT_EQ(rw.standby->applied_lsn(), mark);
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 150);

  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 25).is_ok());
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 175);
  EXPECT_EQ(rw.replica_balance("a2"), kInitial + 175);
  EXPECT_EQ(rw.replica_server->replica_bootstraps(), 0u);
  EXPECT_EQ(rw.standby->apply_failures(), 0u);
  // The fresh shipper re-sent the whole journal; every already-held frame
  // was skipped idempotently at the watermark, none re-applied.
  EXPECT_EQ(rw.standby->received_lsn(), rw.primary->journal_durable_lsn());
}

TEST(Failover, TornWatermarkAppendIsHealedByIdempotentResend) {
  RestartWorld rw;
  auto client = rw.world.accounting_client("alice");
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 60).is_ok());
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());

  // Reboot the standby with a crash point arming its NEXT local journal
  // append: the replicated effect and its watermark ride ONE kReplApply
  // frame, so the torn append loses both together — never the effect
  // without the mark.
  rw.boot_standby(/*with_crash=*/true);
  storage::CrashPlan plan;
  plan.seed = 11;
  plan.min_appends = 1;
  plan.max_appends = 1;
  plan.tear_mid_write = true;
  rw.replica_crash.arm(plan);
  ASSERT_TRUE(client.transfer("bank", "a1", "a2", "usd", 40).is_ok());
  (void)rw.shipper->ship_once();
  EXPECT_TRUE(rw.replica_server->storage_dead());

  // Restart again: recovery replays up to the torn frame, the watermark
  // sits just below the lost apply, and the resend applies it exactly
  // once — without any snapshot bootstrap.
  rw.boot_standby(/*with_crash=*/false);
  ASSERT_TRUE(
      rw.shipper->ship_until(rw.primary->journal_durable_lsn()).is_ok());
  EXPECT_EQ(rw.replica_balance("a1"), kInitial - 100);
  EXPECT_EQ(rw.replica_balance("a2"), kInitial + 100);
  EXPECT_EQ(rw.replica_server->replica_bootstraps(), 0u);
  EXPECT_EQ(rw.standby->apply_failures(), 0u);
}

}  // namespace
}  // namespace rproxy
