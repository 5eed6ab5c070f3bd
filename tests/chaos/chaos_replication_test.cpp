// Seeded failover chaos for journal-shipping replication: the collecting
// shard is killed mid-clearing (and the migration target mid-migration) at
// a seed-chosen journal append under network faults, its hot standby
// promotes, clients re-route, and the books must balance exactly — every
// acked reply present in the promoted state, nothing settled twice.  The
// fencing ablation proves split-brain corrupts the books without epoch
// fencing.  Any failure prints the seed; re-run with CHAOS_SEED=<n>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accounting/replication/failover.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "accounting/sharding/migration.hpp"
#include "storage/crash_point.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"
#include "util/rng.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::MigrationSpec;
using accounting::replication::FailoverCoordinator;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using accounting::sharding::ShardDirectory;
using accounting::sharding::stable_hash64;
using accounting::sharding::uniform_map;
using rproxy::testing::World;

constexpr std::int64_t kInitialBalance = 1000;
const std::vector<std::string> kShards = {"s1", "s2", "s3"};

std::vector<std::uint64_t> seed_matrix(std::uint64_t upto) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= upto; ++s) seeds.push_back(s);
  if (const char* env = std::getenv("CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  return seeds;
}

/// Sharded fleet where one seed-chosen shard (the victim) replicates its
/// journal to a hot standby through the semi-sync barrier.  The victim is
/// never rebooted: when its crash point fires, the standby takes over.
struct ReplicatedFleet {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey storage_key = crypto::SymmetricKey::generate();
  ShardDirectory dir;
  std::map<std::string, std::unique_ptr<AccountingServer>> shards;
  std::string victim;
  std::string standby_name;
  std::unique_ptr<AccountingServer> standby_server;
  std::unique_ptr<StandbyReplayer> standby;
  std::unique_ptr<JournalShipper> shipper;

  explicit ReplicatedFleet(const std::string& victim_shard) {
    victim = victim_shard;
    standby_name = victim + "b";
    world.add_principal("router");
    for (const auto& s : kShards) world.add_principal(s);
    world.add_principal(standby_name);
    EXPECT_TRUE(dir.install(uniform_map(kShards, 1)));
  }

  void boot(const std::string& name, storage::CrashPoint* crash) {
    auto config = world.accounting_config(name);
    config.shard = &dir;
    config.storage_dir = tmp.sub(name);
    config.storage_key = storage_key;
    config.crash_point = crash;
    if (name == victim) {
      // Semi-sync: no reply leaves the victim before its standby has the
      // records behind it (acked ⊆ replicated, the failover invariant).
      config.replication_barrier = [this](std::uint64_t lsn) {
        return shipper ? shipper->ship_until(lsn) : util::Status::ok();
      };
    }
    auto server = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(server->recover().is_ok()) << name;
    world.net.attach(name, *server);
    shards[name] = std::move(server);
  }

  void boot_standby(std::uint64_t seed, bool fencing) {
    // The replayer is the standby's shard gate, so the wrapped server runs
    // gate-open; it keeps its own journal (replication re-journals).
    auto config = world.accounting_config(standby_name);
    config.storage_dir = tmp.sub(standby_name);
    config.storage_key = storage_key;
    standby_server = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(standby_server->recover().is_ok());
    StandbyReplayer::Config rc;
    rc.name = standby_name;
    rc.primary = victim;
    rc.server = standby_server.get();
    rc.clock = &world.clock;
    rc.storage_key = storage_key;
    rc.jitter_seed = seed * 3 + 1;
    rc.enable_fencing = fencing;
    rc.directory = &dir;
    standby = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach(standby_name, *standby);
    JournalShipper::Config sc;
    sc.primary = shards[victim].get();
    sc.net = &world.net;
    sc.standbys = {standby_name};
    sc.fence_primary = fencing;
    shipper = std::make_unique<JournalShipper>(std::move(sc));
  }

  std::vector<std::string> open_on(const std::string& shard, int n) {
    std::vector<std::string> names;
    for (int i = 0; static_cast<int>(names.size()) < n; ++i) {
      const std::string name = "acct-" + shard + "-" + std::to_string(i);
      if (dir.home(name) != shard) continue;
      shards[shard]->open_account(name, "router",
                                  accounting::Balances{{"usd", kInitialBalance}});
      names.push_back(name);
    }
    return names;
  }

  /// Hard-down the victim and drive the standby's failure detector until
  /// it promotes (heartbeat timeout + jitter of simulated silence).
  void fail_over() {
    world.net.detach(victim);
    bool promoted = false;
    for (int i = 0; i < 12 && !promoted; ++i) {
      world.clock.advance(700 * util::kMillisecond);
      auto attempt = standby->maybe_promote();
      ASSERT_TRUE(attempt.is_ok()) << attempt.status();
      promoted = attempt.value();
    }
    ASSERT_TRUE(promoted) << "standby never promoted after primary silence";
    EXPECT_TRUE(standby->promoted());
    // Promotion re-homed the victim's ring arcs — nothing else — onto the
    // standby, so clients re-route without any other account moving.
    EXPECT_EQ(standby->epoch(), 2u);
  }

  /// Live-fleet balance of one account (dead victim excluded — its state
  /// survives only through replication).
  [[nodiscard]] std::int64_t balance(const std::string& account) {
    std::int64_t total = 0;
    for (auto& [name, shard] : shards) {
      if (name == victim) continue;
      if (const auto* acct = shard->account(account)) {
        total += acct->balances().balance("usd");
      }
    }
    if (const auto* acct = standby_server->account(account)) {
      total += acct->balances().balance("usd");
    }
    return total;
  }
};

struct FailoverOutcome {
  int protocol_errors = 0;
  int unconverged = 0;
  int failovers = 0;
  int acked_missing = 0;  ///< acked deposits absent from the promoted state
  std::int64_t named_total = 0;
  std::int64_t expected_named_total = 0;
  std::int64_t uncollected = 0;
  int ledger_mismatches = 0;
};

/// Cross-shard clearing INTO the victim under faults: every check is drawn
/// on a healthy shard and collected at the victim, whose crash point fires
/// at a seed-chosen append mid-clearing.  The standby promotes and the
/// remaining deposits re-drive against it.
FailoverOutcome run_failover_clearing_chaos(std::uint64_t seed) {
  ReplicatedFleet fleet(kShards[seed % kShards.size()]);
  storage::CrashPoint crash;
  for (const auto& s : kShards) {
    fleet.boot(s, s == fleet.victim ? &crash : nullptr);
  }
  fleet.boot_standby(seed, /*fencing=*/true);

  std::map<std::string, std::vector<std::string>> accounts;
  std::vector<std::string> all_accounts;
  for (const auto& s : kShards) {
    accounts[s] = fleet.open_on(s, 2);
    all_accounts.insert(all_accounts.end(), accounts[s].begin(),
                        accounts[s].end());
  }
  for (auto& [name, shard] : fleet.shards) {
    EXPECT_TRUE(shard->checkpoint().is_ok()) << name;
  }
  // Seed the standby from the victim's (just-compacted) snapshot, then
  // arm the kill: it fires inside the clearing workload below.
  EXPECT_TRUE(fleet.shipper
                  ->ship_until(fleet.shards[fleet.victim]->journal_durable_lsn())
                  .is_ok());

  struct PendingTransfer {
    accounting::Check check;
    std::string to_account;
    std::uint64_t amount = 0;
    std::string from_account;
  };
  util::Rng rng(seed);
  std::vector<PendingTransfer> transfers;
  std::map<std::string, std::int64_t> drawn;
  std::map<std::string, std::int64_t> credit;
  std::uint64_t number = 1;
  FailoverOutcome out;
  for (const auto& src : kShards) {
    if (src == fleet.victim) continue;
    for (int k = 0; k < 4; ++k) {
      const auto amount = static_cast<std::uint64_t>(rng.range(1, 40));
      const std::string& from = accounts[src][k % accounts[src].size()];
      const std::string& to =
          accounts[fleet.victim][(k + 1) % accounts[fleet.victim].size()];
      transfers.push_back(
          {accounting::write_check("router",
                                   fleet.world.principal("router").identity,
                                   AccountId{src, from}, "router", "usd",
                                   amount, number++,
                                   fleet.world.clock.now(), util::kHour),
           to, amount, from});
      drawn[from] += static_cast<std::int64_t>(amount);
      credit[to] += static_cast<std::int64_t>(amount);
    }
  }
  out.expected_named_total =
      static_cast<std::int64_t>(all_accounts.size()) * kInitialBalance;

  storage::CrashPlan plan;
  plan.seed = seed * 977 + 13;
  plan.min_appends = 1;
  plan.max_appends = 8;
  plan.tear_mid_write = (seed % 2) == 0;
  crash.arm(plan);

  net::FaultSpec spec;
  spec.drop_request = 0.05;
  spec.drop_reply = 0.08;
  spec.duplicate = 0.05;
  spec.extra_delay = 0.10;
  spec.extra_delay_max = 5 * util::kMillisecond;
  fleet.world.net.set_fault_plan(net::FaultPlan::uniform(seed, spec));

  auto client = fleet.world.accounting_client("router");
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  client.set_retry_policy(retry);

  std::vector<bool> cleared(transfers.size(), false);
  const auto on_victim_death = [&] {
    out.failovers += 1;
    fleet.fail_over();
    // Acked ⊆ promoted-standby state: every deposit whose cleared reply
    // the client HOLDS must be visible in the standby's books.  (≥, not
    // =: un-acked settles may legitimately have replicated too.)
    std::map<std::string, std::int64_t> acked;
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (cleared[i]) acked[transfers[i].to_account] += transfers[i].amount;
    }
    for (const auto& [to, amt] : acked) {
      const auto* acct = fleet.standby_server->account(to);
      if (acct == nullptr ||
          acct->balances().balance("usd") < kInitialBalance + amt) {
        out.acked_missing += 1;
      }
    }
  };
  const auto drive = [&](std::size_t i) {
    // The shared directory is the routing truth: after promotion the
    // victim's accounts home on the standby (placement-aliased ring arcs).
    auto result = client.endorse_and_deposit(fleet.dir.home(transfers[i].to_account),
                                             transfers[i].check,
                                             transfers[i].to_account);
    if (result.is_ok()) {
      cleared[i] = true;
    } else if (!net::RetryPolicy::transport_error(result.status())) {
      out.protocol_errors += 1;
    }
    if (!fleet.standby->promoted() &&
        fleet.shards[fleet.victim]->storage_dead()) {
      on_victim_death();
    }
  };

  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (!cleared[i]) drive(i);
    }
  }
  fleet.world.net.clear_fault_plan();
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    for (int attempt = 0; attempt < 4 && !cleared[i]; ++attempt) {
      drive(i);
    }
    if (!cleared[i]) out.unconverged += 1;
  }

  for (const auto& account : all_accounts) {
    out.named_total += fleet.balance(account);
  }
  for (const auto& [account, total_drawn] : drawn) {
    if (fleet.balance(account) != kInitialBalance - total_drawn) {
      out.ledger_mismatches += 1;
    }
  }
  for (const auto& [account, total_credit] : credit) {
    if (fleet.balance(account) != kInitialBalance + total_credit) {
      out.ledger_mismatches += 1;
    }
  }
  for (auto& [name, shard] : fleet.shards) {
    if (name != fleet.victim) out.uncollected += shard->uncollected_total();
  }
  out.uncollected += fleet.standby_server->uncollected_total();
  EXPECT_EQ(fleet.standby->apply_failures(), 0u);
  return out;
}

TEST(ChaosReplication, PrimaryKilledMidClearingFailsOverWithExactBooks) {
  int total_failovers = 0;
  for (const std::uint64_t seed : seed_matrix(10)) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    const FailoverOutcome out = run_failover_clearing_chaos(seed);
    EXPECT_EQ(out.protocol_errors, 0);
    EXPECT_EQ(out.unconverged, 0);
    EXPECT_EQ(out.acked_missing, 0);
    // Fleet-wide conservation across the failover: no deposit settled
    // twice (victim + standby), none lost, every ledger line exact.
    EXPECT_EQ(out.named_total, out.expected_named_total);
    EXPECT_EQ(out.ledger_mismatches, 0);
    EXPECT_EQ(out.uncollected, 0);
    total_failovers += out.failovers;
    // Each seed's workload outlives its crash budget: every run must
    // actually kill the primary and promote the standby.
    EXPECT_EQ(out.failovers, 1);
  }
  EXPECT_GE(total_failovers, 10);
}

// ---- Migration target killed mid-migration -------------------------------

TEST(ChaosReplication, MigrationTargetKilledFailsOverAndRedriveFinishes) {
  for (const std::uint64_t seed : seed_matrix(6)) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    ReplicatedFleet fleet("s2");
    storage::CrashPoint crash;
    for (const auto& s : kShards) {
      fleet.boot(s, s == "s2" ? &crash : nullptr);
    }
    fleet.boot_standby(seed, /*fencing=*/true);
    const auto moved = fleet.open_on("s1", 2);
    const std::string sink = fleet.open_on("s2", 1)[0];
    const std::string fund = fleet.open_on("s3", 1)[0];
    for (auto& [name, shard] : fleet.shards) {
      EXPECT_TRUE(shard->checkpoint().is_ok()) << name;
    }
    ASSERT_TRUE(
        fleet.shipper->ship_until(fleet.shards["s2"]->journal_durable_lsn())
            .is_ok());

    // Exactly three appends follow at the victim (two foreign settles, one
    // migration import); the seeded kill lands on one of them — clearing
    // or import, the schedule decides.
    storage::CrashPlan plan;
    plan.seed = seed * 31 + 7;
    plan.min_appends = 1;
    plan.max_appends = 3;
    plan.tear_mid_write = (seed % 3) == 0;
    crash.arm(plan);

    auto client = fleet.world.accounting_client("router");
    net::RetryPolicy retry;
    retry.max_attempts = 4;
    client.set_retry_policy(retry);
    int failovers = 0;
    const auto maybe_fail_over = [&] {
      if (!fleet.standby->promoted() &&
          fleet.shards["s2"]->storage_dead()) {
        failovers += 1;
        fleet.fail_over();
      }
    };

    std::uint64_t number = 9000;
    for (const std::uint64_t amount : {10u, 20u}) {
      const accounting::Check check = accounting::write_check(
          "router", fleet.world.principal("router").identity,
          AccountId{"s3", fund}, "router", "usd", amount, number++,
          fleet.world.clock.now(), util::kHour);
      bool done = false;
      for (int attempt = 0; attempt < 5 && !done; ++attempt) {
        done = client.endorse_and_deposit(fleet.dir.home(sink), check, sink)
                   .is_ok();
        if (!done) maybe_fail_over();
      }
      ASSERT_TRUE(done) << "deposit never cleared";
    }

    MigrationSpec spec;
    spec.migration_id = 8000 + seed;
    spec.lo = std::min(stable_hash64(moved[0]), stable_hash64(moved[1]));
    spec.hi = std::max(stable_hash64(moved[0]), stable_hash64(moved[1]));
    spec.source = "s1";

    bool done = false;
    for (int attempt = 0; attempt < 5 && !done; ++attempt) {
      const bool promoted = fleet.standby->promoted();
      AccountingServer& target =
          promoted ? *fleet.standby_server : *fleet.shards["s2"];
      MigrationSpec cur = spec;
      cur.target = promoted ? fleet.standby_name : "s2";
      auto status =
          accounting::sharding::migrate_range(*fleet.shards["s1"], target,
                                              fleet.dir, cur);
      if (status.is_ok()) {
        done = true;
      } else {
        maybe_fail_over();
        ASSERT_TRUE(fleet.standby->promoted())
            << "migration failed without a victim crash: " << status;
      }
    }
    ASSERT_TRUE(done) << "migration never completed";
    EXPECT_EQ(failovers, 1) << "the seeded kill never fired";

    // Exactly-once across the failover: the moved range lives only at the
    // promoted target, the deposits cleared exactly once, nothing frozen.
    const std::string final_home = fleet.standby_name;
    for (const auto& account : moved) {
      EXPECT_EQ(fleet.shards["s1"]->account(account), nullptr);
      EXPECT_EQ(fleet.balance(account), kInitialBalance);
      EXPECT_EQ(fleet.dir.home(account), final_home) << account;
    }
    EXPECT_EQ(fleet.balance(sink), kInitialBalance + 30);
    EXPECT_EQ(fleet.balance(fund), kInitialBalance - 30);
    EXPECT_EQ(fleet.shards["s1"]->frozen_range_count(), 0u);
    EXPECT_TRUE(fleet.standby_server->migration_applied(spec.migration_id));
    EXPECT_EQ(fleet.standby->apply_failures(), 0u);
  }
}

// ---- Double failover: survive the second failure ---------------------------

/// Self-healing fleet (DESIGN.md §5h): the victim shard replicates to a
/// GENERATION CHAIN of standbys driven by a FailoverCoordinator.  The
/// gen-1 standby boots at construction carrying its own (still unarmed)
/// crash point; replacements come out of the coordinator's provision
/// factory, so the replication factor is back before the second kill.
struct SelfHealingFleet {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey storage_key = crypto::SymmetricKey::generate();
  ShardDirectory dir;
  std::map<std::string, std::unique_ptr<AccountingServer>> shards;
  std::string victim;
  storage::CrashPoint crash1;  ///< kills the born primary mid-clearing
  storage::CrashPoint crash2;  ///< kills the gen-1 winner, armed after heal 1
  std::vector<std::unique_ptr<AccountingServer>> gen_servers;
  std::vector<std::unique_ptr<StandbyReplayer>> gen_replayers;
  std::shared_ptr<JournalShipper> shipper;
  std::unique_ptr<FailoverCoordinator> coordinator;
  int generation = 1;

  SelfHealingFleet(const std::string& victim_shard, std::uint64_t seed) {
    victim = victim_shard;
    world.add_principal("router");
    for (const auto& s : kShards) world.add_principal(s);
    EXPECT_TRUE(dir.install(uniform_map(kShards, 1)));
    for (const auto& s : kShards) {
      auto config = world.accounting_config(s);
      config.shard = &dir;
      config.storage_dir = tmp.sub(s);
      config.storage_key = storage_key;
      if (s == victim) {
        config.crash_point = &crash1;
        config.replication_barrier = [this](std::uint64_t lsn) {
          return shipper ? shipper->ship_until(lsn) : util::Status::ok();
        };
      }
      auto server = std::make_unique<AccountingServer>(std::move(config));
      EXPECT_TRUE(server->recover().is_ok()) << s;
      world.net.attach(s, *server);
      shards[s] = std::move(server);
    }
    add_standby(victim + "g1", victim, /*epoch=*/1, seed, &crash2);
    JournalShipper::Config sc;
    sc.primary = shards[victim].get();
    sc.net = &world.net;
    sc.standbys = {victim + "g1"};
    shipper = std::make_shared<JournalShipper>(std::move(sc));

    FailoverCoordinator::Config cc;
    cc.net = &world.net;
    cc.clock = &world.clock;
    cc.provision = [this, seed](const PrincipalName& new_primary,
                                std::uint64_t epoch) {
      generation += 1;
      return add_standby(victim + "g" + std::to_string(generation),
                         new_primary, epoch, seed, nullptr);
    };
    coordinator = std::make_unique<FailoverCoordinator>(std::move(cc));
    coordinator->adopt_group(shards[victim].get(), shipper,
                             {gen_replayers[0].get()});
  }

  StandbyReplayer* add_standby(const std::string& name,
                               const PrincipalName& primary_name,
                               std::uint64_t epoch, std::uint64_t seed,
                               storage::CrashPoint* crash) {
    world.add_principal(name);
    auto config = world.accounting_config(name);
    config.storage_dir = tmp.sub(name);
    config.storage_key = storage_key;
    config.crash_point = crash;
    auto server = std::make_unique<AccountingServer>(std::move(config));
    EXPECT_TRUE(server->recover().is_ok()) << name;
    StandbyReplayer::Config rc;
    rc.name = name;
    rc.primary = primary_name;
    rc.server = server.get();
    rc.clock = &world.clock;
    rc.storage_key = storage_key;
    rc.epoch = epoch;
    rc.jitter_seed = seed * 5 + gen_replayers.size() + 1;
    rc.directory = &dir;
    auto replayer = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach(name, *replayer);
    gen_servers.push_back(std::move(server));
    gen_replayers.push_back(std::move(replayer));
    return gen_replayers.back().get();
  }

  /// The serving copy of the victim's state (the victim itself until the
  /// first heal, then whatever generation the coordinator promoted).
  [[nodiscard]] AccountingServer& primary_server() {
    for (auto& replayer : gen_replayers) {
      if (replayer->name() == coordinator->primary_name()) {
        return replayer->server();
      }
    }
    return *shards[victim];
  }

  /// Detaches the dead primary and ticks the coordinator (heartbeat gap +
  /// failure detector + heal) until generation `target` is serving.
  void heal_to(std::uint64_t target) {
    world.net.detach(coordinator->primary_name());
    for (int i = 0; i < 15 && coordinator->generations() < target; ++i) {
      world.clock.advance(700 * util::kMillisecond);
      auto tick = coordinator->tick();
      ASSERT_TRUE(tick.is_ok()) << tick.status();
    }
    ASSERT_EQ(coordinator->generations(), target)
        << "no standby promoted after primary silence";
  }

  std::vector<std::string> open_on(const std::string& shard, int n) {
    std::vector<std::string> names;
    for (int i = 0; static_cast<int>(names.size()) < n; ++i) {
      const std::string name = "acct-" + shard + "-" + std::to_string(i);
      if (dir.home(name) != shard) continue;
      shards[shard]->open_account(name, "router",
                                  accounting::Balances{{"usd", kInitialBalance}});
      names.push_back(name);
    }
    return names;
  }

  /// Live-fleet balance: healthy shards plus the CURRENT primary of the
  /// victim's generation chain.  Dead generations and the replica copies
  /// held by hot standbys are excluded — money must live exactly once in
  /// the serving fleet.
  [[nodiscard]] std::int64_t balance(const std::string& account) {
    std::int64_t total = 0;
    for (auto& [name, shard] : shards) {
      if (name == victim) continue;
      if (const auto* acct = shard->account(account)) {
        total += acct->balances().balance("usd");
      }
    }
    if (const auto* acct = primary_server().account(account)) {
      total += acct->balances().balance("usd");
    }
    return total;
  }
};

struct DoubleFailoverOutcome {
  int protocol_errors = 0;
  int unconverged = 0;
  int acked_missing = 0;  ///< acked deposits absent right after a heal
  std::uint64_t generations = 0;
  bool factor_restored = false;  ///< replacement caught up before kill #2
  bool dead_name_cleared = false;
  std::uint64_t final_epoch = 0;
  std::uint64_t apply_failures = 0;
  std::int64_t named_total = 0;
  std::int64_t expected_named_total = 0;
  std::int64_t uncollected = 0;
  int ledger_mismatches = 0;
};

/// Two successive primary failures mid-clearing under network faults.
/// Phase 1 kills the born primary at a seed-chosen append; the coordinator
/// promotes g1, re-provisions g2, and re-arms the barrier.  Once the
/// replacement holds g1's durable state the SECOND crash point is armed
/// and phase 2 kills g1 the same way — the heal must run again off the
/// re-provisioned standby.  A check drawn on the original victim's NAME
/// before any failure is presented only after both heals: identity
/// adoption has to chain victim → g1 → g2.
DoubleFailoverOutcome run_double_failover_chaos(std::uint64_t seed) {
  SelfHealingFleet fleet(kShards[seed % kShards.size()], seed);
  DoubleFailoverOutcome out;

  std::map<std::string, std::vector<std::string>> accounts;
  std::vector<std::string> all_accounts;
  for (const auto& s : kShards) {
    accounts[s] = fleet.open_on(s, 2);
    all_accounts.insert(all_accounts.end(), accounts[s].begin(),
                        accounts[s].end());
  }
  for (auto& [name, shard] : fleet.shards) {
    EXPECT_TRUE(shard->checkpoint().is_ok()) << name;
  }
  EXPECT_TRUE(fleet.shipper
                  ->ship_until(fleet.shards[fleet.victim]->journal_durable_lsn())
                  .is_ok());

  // Drawn on the victim's NAME before any failure, presented only after
  // BOTH failovers — the adoption chain's acid test.
  const accounting::Check dead_name_check = accounting::write_check(
      "router", fleet.world.principal("router").identity,
      AccountId{fleet.victim, accounts[fleet.victim][0]}, "router", "usd", 75,
      777777, fleet.world.clock.now(), util::kHour);

  struct PendingTransfer {
    accounting::Check check;
    std::string to_account;
    std::uint64_t amount = 0;
  };
  util::Rng rng(seed);
  std::vector<PendingTransfer> transfers;
  std::vector<bool> cleared;
  std::map<std::string, std::int64_t> delta;  ///< expected − kInitialBalance
  std::uint64_t number = 1;
  const auto make_batch = [&] {
    for (const auto& src : kShards) {
      if (src == fleet.victim) continue;
      for (int k = 0; k < 4; ++k) {
        const auto amount = static_cast<std::uint64_t>(rng.range(1, 40));
        const std::string& from = accounts[src][k % accounts[src].size()];
        const std::string& to =
            accounts[fleet.victim][(k + 1) % accounts[fleet.victim].size()];
        transfers.push_back(
            {accounting::write_check("router",
                                     fleet.world.principal("router").identity,
                                     AccountId{src, from}, "router", "usd",
                                     amount, number++,
                                     fleet.world.clock.now(), util::kHour),
             to, amount});
        cleared.push_back(false);
        delta[from] -= static_cast<std::int64_t>(amount);
        delta[to] += static_cast<std::int64_t>(amount);
      }
    }
  };

  auto client = fleet.world.accounting_client("router");
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  client.set_retry_policy(retry);

  // Acked ⊆ promoted state, re-checked after EVERY heal: each credit the
  // client holds a cleared reply for must already be in the new primary's
  // books (≥, not =: un-acked settles may legitimately have replicated).
  const auto check_acked = [&] {
    std::map<std::string, std::int64_t> acked;
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      if (cleared[i]) acked[transfers[i].to_account] += transfers[i].amount;
    }
    for (const auto& [to, amt] : acked) {
      const auto* acct = fleet.primary_server().account(to);
      if (acct == nullptr ||
          acct->balances().balance("usd") < kInitialBalance + amt) {
        out.acked_missing += 1;
      }
    }
  };
  const auto drive = [&](std::size_t i, AccountingServer* mortal,
                         std::uint64_t heal_target) {
    auto result = client.endorse_and_deposit(
        fleet.dir.home(transfers[i].to_account), transfers[i].check,
        transfers[i].to_account);
    if (result.is_ok()) {
      cleared[i] = true;
    } else if (!net::RetryPolicy::transport_error(result.status())) {
      out.protocol_errors += 1;
    }
    if (fleet.coordinator->generations() < heal_target &&
        mortal->storage_dead()) {
      fleet.heal_to(heal_target);
      check_acked();
    }
  };
  const auto run_phase = [&](std::size_t begin, AccountingServer* mortal,
                             std::uint64_t heal_target,
                             std::uint64_t fault_seed) {
    net::FaultSpec spec;
    spec.drop_request = 0.05;
    spec.drop_reply = 0.08;
    spec.duplicate = 0.05;
    spec.extra_delay = 0.10;
    spec.extra_delay_max = 5 * util::kMillisecond;
    fleet.world.net.set_fault_plan(net::FaultPlan::uniform(fault_seed, spec));
    for (int pass = 0; pass < 3; ++pass) {
      for (std::size_t i = begin; i < transfers.size(); ++i) {
        if (!cleared[i]) drive(i, mortal, heal_target);
      }
    }
    fleet.world.net.clear_fault_plan();
    for (std::size_t i = begin; i < transfers.size(); ++i) {
      for (int attempt = 0; attempt < 4 && !cleared[i]; ++attempt) {
        drive(i, mortal, heal_target);
      }
      if (!cleared[i]) out.unconverged += 1;
    }
  };

  // Phase 1: kill the born primary mid-clearing.
  storage::CrashPlan plan1;
  plan1.seed = seed * 977 + 13;
  plan1.min_appends = 1;
  plan1.max_appends = 8;
  plan1.tear_mid_write = (seed % 2) == 0;
  fleet.crash1.arm(plan1);
  make_batch();
  run_phase(0, fleet.shards[fleet.victim].get(), /*heal_target=*/1, seed);

  // Factor-restored gate: before the second kill the coordinator must
  // have a live replacement standby holding the winner's durable state —
  // otherwise the second failure would have nothing to fail over TO and
  // the test would only re-prove single-failure survival.
  AccountingServer& gen1 = fleet.gen_replayers[0]->server();
  out.factor_restored =
      fleet.coordinator->generations() == 1 &&
      !fleet.coordinator->standbys().empty() &&
      fleet.coordinator->shipper()->ship_until(gen1.journal_durable_lsn())
          .is_ok();

  // Phase 2: the generation-1 winner dies the same way.
  storage::CrashPlan plan2;
  plan2.seed = seed * 31 + 7;
  plan2.min_appends = 1;
  plan2.max_appends = 6;
  plan2.tear_mid_write = (seed % 3) == 0;
  fleet.crash2.arm(plan2);
  const std::size_t phase2_begin = transfers.size();
  make_batch();
  run_phase(phase2_begin, &gen1, /*heal_target=*/2, seed * 131 + 1);

  out.generations = fleet.coordinator->generations();

  // The dead NAME still clears at the final survivor (adoption chained
  // victim → g1 → g2 through the bootstrap snapshots) and the retry is
  // deduped: the paper moves money exactly once.
  const PrincipalName survivor = fleet.coordinator->primary_name();
  const auto deposited =
      client.endorse_and_deposit(survivor, dead_name_check,
                                 accounts[fleet.victim][1]);
  const auto retried =
      client.endorse_and_deposit(survivor, dead_name_check,
                                 accounts[fleet.victim][1]);
  out.dead_name_cleared = deposited.is_ok() && retried.is_ok();
  if (out.dead_name_cleared) {
    delta[accounts[fleet.victim][0]] -= 75;
    delta[accounts[fleet.victim][1]] += 75;
  }

  for (auto& replayer : fleet.gen_replayers) {
    if (replayer->name() == survivor) out.final_epoch = replayer->epoch();
  }
  out.apply_failures += fleet.coordinator->standbys().empty()
                            ? 0
                            : fleet.coordinator->standbys()[0]->apply_failures();

  out.expected_named_total =
      static_cast<std::int64_t>(all_accounts.size()) * kInitialBalance;
  for (const auto& account : all_accounts) {
    out.named_total += fleet.balance(account);
    if (fleet.balance(account) != kInitialBalance + delta[account]) {
      out.ledger_mismatches += 1;
    }
  }
  for (auto& [name, shard] : fleet.shards) {
    if (name != fleet.victim) out.uncollected += shard->uncollected_total();
  }
  out.uncollected += fleet.primary_server().uncollected_total();
  return out;
}

TEST(ChaosReplication, SecondFailureHealsAndTheBooksStayExact) {
  for (const std::uint64_t seed : seed_matrix(6)) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    const DoubleFailoverOutcome out = run_double_failover_chaos(seed);
    // Both seeded kills fired and both heals completed (epochs 1 → 2 → 3).
    EXPECT_EQ(out.generations, 2u);
    EXPECT_EQ(out.final_epoch, 3u);
    EXPECT_TRUE(out.factor_restored)
        << "replication factor was not back before the second kill";
    EXPECT_EQ(out.protocol_errors, 0);
    EXPECT_EQ(out.unconverged, 0);
    EXPECT_EQ(out.acked_missing, 0);
    EXPECT_TRUE(out.dead_name_cleared)
        << "check drawn on the original primary's name bounced at the "
           "final survivor";
    // Fleet-wide conservation across BOTH failovers: nothing settled
    // twice, nothing lost, every ledger line exact.
    EXPECT_EQ(out.named_total, out.expected_named_total);
    EXPECT_EQ(out.ledger_mismatches, 0);
    EXPECT_EQ(out.uncollected, 0);
    EXPECT_EQ(out.apply_failures, 0u);
  }
}

// ---- Fencing-off ablation (teeth) -----------------------------------------

struct SplitBrainBooks {
  std::int64_t a = 0;
  std::int64_t b = 0;
  bool primary_fenced = false;
};

/// Deterministic split-brain schedule: a transfer is applied on the
/// primary but its ack withheld (standby partitioned), the standby
/// promotes and the client retries the transfer there, then the partition
/// heals and the stale primary ships its fork.  With fencing the fork is
/// refused at the epoch boundary; without it the standby replays the
/// transfer ON TOP of the retried one — the books double-move money the
/// client was told failed once.
SplitBrainBooks run_split_brain(bool fencing) {
  ReplicatedFleet fleet("s1");
  for (const auto& s : kShards) fleet.boot(s, nullptr);
  fleet.boot_standby(/*seed=*/1, fencing);
  const auto accts = fleet.open_on("s1", 2);
  // Make the opens durable (open_account leaves them staged below the
  // fsync watermark) and seed the standby through the bootstrap path.
  EXPECT_TRUE(fleet.shards["s1"]->checkpoint().is_ok());
  EXPECT_TRUE(fleet.shipper
                  ->ship_until(fleet.shards["s1"]->journal_durable_lsn())
                  .is_ok());

  auto client = fleet.world.accounting_client("router");
  // Partition primary from standby: the next write applies on the primary
  // but its ack is withheld at the replication barrier.
  fleet.world.net.fail_link("s1", fleet.standby_name);
  auto withheld = client.transfer("s1", accts[0], accts[1], "usd", 50);
  EXPECT_FALSE(withheld.is_ok());

  // The client treats the op as failed, the operator promotes the
  // standby, and the retry lands there — THE transfer, as acked history.
  const util::Status promoted = fleet.standby->promote();
  EXPECT_TRUE(promoted.is_ok()) << promoted;
  const util::Status retried =
      client.transfer(fleet.standby_name, accts[0], accts[1], "usd", 50);
  EXPECT_TRUE(retried.is_ok()) << retried;

  // Heal: the deposed primary's shipper pushes its forked journal tail.
  fleet.world.net.restore_link("s1", fleet.standby_name);
  (void)fleet.shipper->ship_once();

  SplitBrainBooks books;
  books.a = fleet.standby_server->account(accts[0])->balances().balance("usd");
  books.b = fleet.standby_server->account(accts[1])->balances().balance("usd");
  books.primary_fenced = fleet.shards["s1"]->fenced();
  return books;
}

TEST(ChaosReplication, FencingRefusesTheDeposedPrimarysFork) {
  const SplitBrainBooks books = run_split_brain(/*fencing=*/true);
  EXPECT_EQ(books.a, kInitialBalance - 50);
  EXPECT_EQ(books.b, kInitialBalance + 50);
  EXPECT_TRUE(books.primary_fenced);
}

TEST(ChaosReplication, FencingOffLetsTheForkCorruptTheBooks) {
  // Teeth: without fencing this schedule MUST double-apply the transfer.
  // If it stops doing so, the ablation no longer proves fencing matters.
  const SplitBrainBooks books = run_split_brain(/*fencing=*/false);
  EXPECT_EQ(books.a, kInitialBalance - 100)
      << "stale primary's fork was not applied; the ablation has lost its "
         "teeth";
  EXPECT_EQ(books.b, kInitialBalance + 100);
  EXPECT_FALSE(books.primary_fenced);
}

}  // namespace
}  // namespace rproxy
