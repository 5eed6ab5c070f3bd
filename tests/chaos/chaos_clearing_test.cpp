// Seeded chaos runner for the clearing chain (Fig 5, three banks).
//
// A merchant banks at bank1; its customers bank at bank3; bank1 collects
// via bank2 (correspondent route).  Every link suffers seeded faults —
// lost requests, lost replies, duplicates, delay spikes, transient
// partitions — while the merchant deposits checks with a retrying client.
// Per seed we assert the money invariants the paper's accounting model
// promises: conservation, no double credit, and eventual convergence once
// the faults stop.  Any failure prints the seed; re-running the binary
// with CHAOS_SEED=<n> replays that exact schedule.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/crash_point.hpp"
#include "storage/snapshot_store.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"
#include "util/rng.hpp"

namespace rproxy {
namespace {

using testing::World;

constexpr std::int64_t kInitialBalance = 1000;
constexpr int kChecksPerPayor = 4;

/// Everything a seed's run produces; assertions live in the tests so the
/// same harness can both demand success (dedup on) and count violations
/// (dedup off).
struct Outcome {
  int protocol_errors = 0;   ///< non-transport deposit failures under faults
  int unconverged = 0;       ///< deposits still failing after faults stopped
  std::int64_t merchant = 0;
  std::int64_t expected_total = 0;
  int payor_mismatches = 0;  ///< payor accounts not at initial - spent
  std::int64_t uncollected = 0;          ///< bank1 + bank2 pending credits
  std::uint64_t drawee_cleared = 0;      ///< distinct settlements at bank3
  std::uint64_t deduped = 0;             ///< replies replayed from dedup
  std::uint64_t faults = 0;              ///< injected faults, all kinds
};

Outcome run_clearing_chaos(std::uint64_t seed, bool enable_dedup,
                           double drop_reply) {
  World world;
  const std::vector<std::string> payors = {"alice", "bob", "carol"};
  for (const auto& p : payors) world.add_principal(p);
  world.add_principal("merchant");
  world.add_principal("bank1");
  world.add_principal("bank2");
  world.add_principal("bank3");

  const auto config_for = [&](const char* name) {
    auto config = world.accounting_config(name);
    config.enable_dedup = enable_dedup;
    return config;
  };
  accounting::AccountingServer bank1(config_for("bank1"));
  accounting::AccountingServer bank2(config_for("bank2"));
  accounting::AccountingServer bank3(config_for("bank3"));
  world.net.attach("bank1", bank1);
  world.net.attach("bank2", bank2);
  world.net.attach("bank3", bank3);
  // bank1 -> bank2 -> bank3
  EXPECT_TRUE(bank1.set_route("bank3", "bank2").is_ok());
  bank1.open_account("merchant-acct", "merchant");
  for (const auto& p : payors) {
    bank3.open_account(p + "-acct", p,
                       accounting::Balances{{"usd", kInitialBalance}});
  }

  // The checks to clear, amounts drawn from the seed.
  struct PendingCheck {
    accounting::Check check;
    std::uint64_t amount = 0;
  };
  util::Rng rng(seed);
  std::vector<PendingCheck> checks;
  std::map<std::string, std::int64_t> spent;
  Outcome out;
  std::uint64_t number = 1;
  for (const auto& p : payors) {
    for (int i = 0; i < kChecksPerPayor; ++i) {
      const auto amount = static_cast<std::uint64_t>(rng.range(1, 50));
      checks.push_back(
          {accounting::write_check(p, world.principal(p).identity,
                                   AccountId{"bank3", p + "-acct"},
                                   "merchant", "usd", amount, number++,
                                   world.clock.now(), util::kHour),
           amount});
      spent[p] += static_cast<std::int64_t>(amount);
      out.expected_total += static_cast<std::int64_t>(amount);
    }
  }

  net::FaultSpec spec;
  spec.drop_request = 0.06;
  spec.drop_reply = drop_reply;
  spec.duplicate = 0.06;
  spec.extra_delay = 0.10;
  spec.extra_delay_max = 5 * util::kMillisecond;
  spec.unreachable = 0.02;
  spec.unreachable_window = 40 * util::kMillisecond;
  world.net.set_fault_plan(net::FaultPlan::uniform(seed, spec));

  auto merchant = world.accounting_client("merchant");
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  merchant.set_retry_policy(retry);

  // Faulty phase: several passes; transport failures stay pending, any
  // deterministic verdict under faults is a correctness violation (with
  // dedup on, a retried duplicate must never bounce as a replay).
  std::vector<bool> cleared(checks.size(), false);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (cleared[i]) continue;
      auto result = merchant.endorse_and_deposit("bank1", checks[i].check,
                                                 "merchant-acct");
      if (result.is_ok()) {
        cleared[i] = true;
      } else if (!net::RetryPolicy::transport_error(result.status())) {
        out.protocol_errors += 1;
      }
    }
  }

  // Faults stop; every remaining check must clear (convergence).
  world.net.clear_fault_plan();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (cleared[i]) continue;
    auto result = merchant.endorse_and_deposit("bank1", checks[i].check,
                                               "merchant-acct");
    if (result.is_ok()) {
      cleared[i] = true;
    } else {
      out.unconverged += 1;
    }
  }

  out.merchant = bank1.account("merchant-acct")->balances().balance("usd");
  for (const auto& p : payors) {
    if (bank3.account(p + "-acct")->balances().balance("usd") !=
        kInitialBalance - spent[p]) {
      out.payor_mismatches += 1;
    }
  }
  out.uncollected = bank1.uncollected_total() + bank2.uncollected_total();
  out.drawee_cleared = bank3.checks_cleared();
  out.deduped = bank1.deduped_replies() + bank2.deduped_replies() +
                bank3.deduped_replies();
  out.faults = world.net.stats().faults_total();
  return out;
}

TEST(ChaosClearing, SeededFaultsNeverBreakConservation) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 24; ++s) seeds.push_back(s);
  // CI adds one run-unique seed so the schedule space keeps being explored;
  // a failure names the seed for local replay.
  if (const char* env = std::getenv("CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }

  std::uint64_t total_faults = 0;
  std::uint64_t total_deduped = 0;
  const std::uint64_t check_count =
      static_cast<std::uint64_t>(3 * kChecksPerPayor);
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    const Outcome out = run_clearing_chaos(seed, /*enable_dedup=*/true,
                                           /*drop_reply=*/0.06);
    EXPECT_EQ(out.protocol_errors, 0);
    EXPECT_EQ(out.unconverged, 0);
    // No double credit, no lost money: the merchant holds exactly the
    // written total, every payor paid exactly what they spent, and no
    // provisional credit is left dangling.
    EXPECT_EQ(out.merchant, out.expected_total);
    EXPECT_EQ(out.payor_mismatches, 0);
    EXPECT_EQ(out.uncollected, 0);
    // Each check settled at the drawee exactly once (dedup replays do not
    // re-count).
    EXPECT_EQ(out.drawee_cleared, check_count);
    total_faults += out.faults;
    total_deduped += out.deduped;
  }
  // The suite must actually have been stressed: faults fired, and some
  // retried/duplicated operation was answered from a dedup table.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_deduped, 0u);
}

TEST(ChaosClearing, DisablingDedupBreaksExactlyOnce) {
  // Teeth check: the same harness with dedup off must produce at least one
  // violation — a lost reply after settlement makes the retried deposit
  // bounce as a replay, leaving the check permanently unclearable (and the
  // books wrong).  If this test ever fails, the chaos suite has stopped
  // exercising the scenario dedup exists for.
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 10 && violations == 0; ++seed) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    const Outcome out = run_clearing_chaos(seed, /*enable_dedup=*/false,
                                           /*drop_reply=*/0.2);
    if (out.protocol_errors > 0 || out.unconverged > 0 ||
        out.merchant != out.expected_total || out.payor_mismatches > 0) {
      violations += 1;
    }
  }
  EXPECT_GE(violations, 1)
      << "no seed produced a double-spend/lost-money violation with dedup "
         "disabled; the chaos schedule is too gentle to prove anything";
}

// ---- Crash-recovery matrix (storage-backed banks, seeded kills) ----------
//
// Same three-bank clearing chain, but every bank journals to disk and one
// seed-chosen bank is killed at a seeded journal offset MID-RUN, while the
// network faults are also firing.  The harness restarts the dead bank and
// keeps clearing; with the write-ahead journal the books must come out
// exactly as if the crash never happened.  The ablation restarts from the
// periodic snapshot alone (no tail replay) and must produce violations on
// the same schedules — proof the journal, not luck, carries the invariant.

struct CrashOutcome {
  int protocol_errors = 0;
  int unconverged = 0;
  std::int64_t merchant = 0;
  std::int64_t expected_total = 0;
  int payor_mismatches = 0;
  std::int64_t uncollected = 0;
  int restarts = 0;
  /// Retries answered from the restarted victim's RECOVERED dedup table.
  std::uint64_t victim_deduped_after_restart = 0;
};

CrashOutcome run_crash_recovery_chaos(std::uint64_t seed,
                                      bool replay_journal,
                                      const std::string& victim) {
  World world;
  rproxy::testing::TempDir tmp;
  const crypto::SymmetricKey storage_key = crypto::SymmetricKey::generate();
  const std::vector<std::string> payors = {"alice", "bob", "carol"};
  for (const auto& p : payors) world.add_principal(p);
  world.add_principal("merchant");
  world.add_principal("bank1");
  world.add_principal("bank2");
  world.add_principal("bank3");

  storage::CrashPoint crash;  // inert until armed below
  std::map<std::string, std::unique_ptr<accounting::AccountingServer>> banks;
  const auto boot = [&](const std::string& name, bool with_storage,
                        storage::CrashPoint* cp) {
    auto config = world.accounting_config(name);
    if (with_storage) {
      config.storage_dir = tmp.sub(name);
      config.storage_key = storage_key;
      config.crash_point = cp;
    }
    auto server =
        std::make_unique<accounting::AccountingServer>(std::move(config));
    EXPECT_TRUE(server->recover().is_ok());
    world.net.attach(name, *server);
    banks[name] = std::move(server);
  };
  for (const char* name : {"bank1", "bank2", "bank3"}) {
    boot(name, /*with_storage=*/true, name == victim ? &crash : nullptr);
  }
  EXPECT_TRUE(banks["bank1"]->set_route("bank3", "bank2").is_ok());
  banks["bank1"]->open_account("merchant-acct", "merchant");
  for (const auto& p : payors) {
    banks["bank3"]->open_account(
        p + "-acct", p, accounting::Balances{{"usd", kInitialBalance}});
  }
  // Periodic-snapshot point: everything after this lives only in the
  // journal tail until the next checkpoint (which never comes).
  for (auto& [name, bank] : banks) {
    EXPECT_TRUE(bank->checkpoint().is_ok()) << name;
  }

  util::Rng rng(seed);
  struct PendingCheck {
    accounting::Check check;
    std::uint64_t amount = 0;
  };
  std::vector<PendingCheck> checks;
  std::map<std::string, std::int64_t> spent;
  CrashOutcome out;
  std::uint64_t number = 1;
  for (const auto& p : payors) {
    for (int i = 0; i < kChecksPerPayor; ++i) {
      const auto amount = static_cast<std::uint64_t>(rng.range(1, 50));
      checks.push_back(
          {accounting::write_check(p, world.principal(p).identity,
                                   AccountId{"bank3", p + "-acct"},
                                   "merchant", "usd", amount, number++,
                                   world.clock.now(), util::kHour),
           amount});
      spent[p] += static_cast<std::int64_t>(amount);
      out.expected_total += static_cast<std::int64_t>(amount);
    }
  }

  // Arm the kill: the victim dies at a seeded append within the run.
  storage::CrashPlan plan;
  plan.seed = seed * 977 + 13;
  plan.min_appends = 1;
  plan.max_appends = 6;
  plan.tear_mid_write = (seed % 2) == 0;
  crash.arm(plan);

  net::FaultSpec spec;
  spec.drop_request = 0.05;
  spec.drop_reply = 0.08;
  spec.duplicate = 0.05;
  spec.extra_delay = 0.10;
  spec.extra_delay_max = 5 * util::kMillisecond;
  world.net.set_fault_plan(net::FaultPlan::uniform(seed, spec));

  auto merchant = world.accounting_client("merchant");
  net::RetryPolicy retry;
  retry.max_attempts = 6;
  merchant.set_retry_policy(retry);

  const auto restart_victim = [&] {
    out.restarts += 1;
    if (replay_journal) {
      // Real recovery: newest snapshot + journal tail.
      boot(victim, /*with_storage=*/true, nullptr);
    } else {
      // Ablation: pretend the journal does not exist — only the periodic
      // snapshot survives the crash, so every acknowledged mutation since
      // the last checkpoint is silently lost.
      storage::SnapshotStore store(tmp.sub(victim));
      auto latest = store.load_latest();
      EXPECT_TRUE(latest.is_ok() && latest.value().has_value());
      boot(victim, /*with_storage=*/false, nullptr);
      EXPECT_TRUE(
          banks[victim]
              ->restore(storage_key, latest.value()->sealed)
              .is_ok());
    }
  };

  std::vector<bool> cleared(checks.size(), false);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (cleared[i]) continue;
      auto result = merchant.endorse_and_deposit("bank1", checks[i].check,
                                                 "merchant-acct");
      if (result.is_ok()) {
        cleared[i] = true;
      } else if (!net::RetryPolicy::transport_error(result.status())) {
        out.protocol_errors += 1;
      }
      if (banks[victim]->storage_dead()) restart_victim();
    }
  }

  // Faults stop; every remaining check must clear against the restarted
  // bank (extra attempts cover a kill that fires this late).
  world.net.clear_fault_plan();
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (cleared[i]) continue;
    for (int attempt = 0; attempt < 3 && !cleared[i]; ++attempt) {
      auto result = merchant.endorse_and_deposit("bank1", checks[i].check,
                                                 "merchant-acct");
      if (result.is_ok()) {
        cleared[i] = true;
      } else if (banks[victim]->storage_dead()) {
        restart_victim();
      } else {
        break;
      }
    }
    if (!cleared[i]) out.unconverged += 1;
  }

  out.merchant =
      banks["bank1"]->account("merchant-acct")->balances().balance("usd");
  for (const auto& p : payors) {
    if (banks["bank3"]->account(p + "-acct")->balances().balance("usd") !=
        kInitialBalance - spent[p]) {
      out.payor_mismatches += 1;
    }
  }
  out.uncollected = banks["bank1"]->uncollected_total() +
                    banks["bank2"]->uncollected_total();
  if (out.restarts > 0) {
    out.victim_deduped_after_restart = banks[victim]->deduped_replies();
  }
  return out;
}

TEST(ChaosClearing, KillAnyBankMidRunAndTheJournalPreservesTheBooks) {
  const std::vector<std::string> victims = {"bank1", "bank2", "bank3"};
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 12; ++s) seeds.push_back(s);
  if (const char* env = std::getenv("CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }

  int total_restarts = 0;
  std::uint64_t recovered_dedup_replays = 0;
  for (const std::uint64_t seed : seeds) {
    const std::string victim = victims[seed % victims.size()];
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed) +
                 " (victim " + victim + ")");
    const CrashOutcome out =
        run_crash_recovery_chaos(seed, /*replay_journal=*/true, victim);
    EXPECT_EQ(out.protocol_errors, 0);
    EXPECT_EQ(out.unconverged, 0);
    EXPECT_EQ(out.merchant, out.expected_total);
    EXPECT_EQ(out.payor_mismatches, 0);
    EXPECT_EQ(out.uncollected, 0);
    // The kill must actually have fired: a matrix that never crashes
    // anyone proves nothing.
    EXPECT_GE(out.restarts, 1);
    total_restarts += out.restarts;
    recovered_dedup_replays += out.victim_deduped_after_restart;
  }
  EXPECT_GE(total_restarts, static_cast<int>(seeds.size()));
  // At least one retried in-flight operation must have been answered from
  // a RECOVERED dedup table — the exact state a journal-less restart loses.
  EXPECT_GT(recovered_dedup_replays, 0u);
}

TEST(ChaosClearing, SnapshotOnlyRestartLosesAcknowledgedState) {
  // Teeth: the identical harness, but the victim restarts from the
  // periodic snapshot alone.  Acknowledged settlements since the last
  // checkpoint vanish, so some seed must leave the books wrong — payors
  // refunded for cleared checks (victim bank3) or merchant credits gone
  // (victim bank1).  If every seed passes, the matrix has stopped testing
  // anything.
  int violations = 0;
  for (std::uint64_t seed = 1; seed <= 8 && violations == 0; ++seed) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    const std::string victim = (seed % 2) == 0 ? "bank1" : "bank3";
    const CrashOutcome out =
        run_crash_recovery_chaos(seed, /*replay_journal=*/false, victim);
    if (out.restarts == 0) continue;  // kill never fired; seed proves nothing
    if (out.merchant != out.expected_total || out.payor_mismatches > 0 ||
        out.unconverged > 0 || out.protocol_errors > 0) {
      violations += 1;
    }
  }
  EXPECT_GE(violations, 1)
      << "snapshot-only restarts never corrupted the books; the crash "
         "schedule is too gentle to prove the journal matters";
}

TEST(ChaosClearing, CrashRestartFromSnapshotKeepsExactlyOnce) {
  // Crash-restart: detach the bank (crash), restore a sealed snapshot into
  // a fresh instance (restart), and verify the restored dedup table keeps
  // replaying pre-crash deposits instead of settling them twice.
  World world;
  world.add_principal("client");
  world.add_principal("merchant");
  world.add_principal("bank");
  auto bank = std::make_unique<accounting::AccountingServer>(
      world.accounting_config("bank"));
  world.net.attach("bank", *bank);
  bank->open_account("client-acct", "client",
                     accounting::Balances{{"usd", 100}});
  bank->open_account("merchant-acct", "merchant");

  auto merchant = world.accounting_client("merchant");
  net::RetryPolicy retry;
  retry.max_attempts = 4;
  merchant.set_retry_policy(retry);

  const accounting::Check check1 = accounting::write_check(
      "client", world.principal("client").identity,
      AccountId{"bank", "client-acct"}, "merchant", "usd", 30, 1,
      world.clock.now(), util::kHour);
  const accounting::Check check2 = accounting::write_check(
      "client", world.principal("client").identity,
      AccountId{"bank", "client-acct"}, "merchant", "usd", 20, 2,
      world.clock.now(), util::kHour);

  ASSERT_TRUE(
      merchant.endorse_and_deposit("bank", check1, "merchant-acct").is_ok());

  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  const util::Bytes snap = bank->snapshot(key);

  // Crash.  Retries burn through their attempts and still fail.
  world.net.detach("bank");
  auto down = merchant.endorse_and_deposit("bank", check2, "merchant-acct");
  EXPECT_FALSE(down.is_ok());
  EXPECT_TRUE(net::RetryPolicy::transport_error(down.status()))
      << down.status();

  // Restart a FRESH instance from the snapshot (the crashed process is
  // gone; only the sealed snapshot survives).
  accounting::AccountingServer restarted(world.accounting_config("bank"));
  ASSERT_TRUE(restarted.restore(key, snap).is_ok());
  world.net.attach("bank", restarted);

  // The failed deposit now succeeds...
  ASSERT_TRUE(
      merchant.endorse_and_deposit("bank", check2, "merchant-acct").is_ok());
  EXPECT_EQ(restarted.account("merchant-acct")->balances().balance("usd"),
            50);
  EXPECT_EQ(restarted.account("client-acct")->balances().balance("usd"), 50);

  // ...and a retry of the PRE-crash deposit is answered from the restored
  // dedup table: same reply, no second settlement.
  ASSERT_TRUE(
      merchant.endorse_and_deposit("bank", check1, "merchant-acct").is_ok());
  EXPECT_EQ(restarted.deduped_replies(), 1u);
  EXPECT_EQ(restarted.account("merchant-acct")->balances().balance("usd"),
            50);
}

}  // namespace
}  // namespace rproxy
