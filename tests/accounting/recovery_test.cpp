// Crash durability: kill-anywhere recovery from the write-ahead journal.
//
// These tests drive a storage-backed AccountingServer through real client
// operations, kill it at deterministic journal offsets (storage::CrashPoint),
// restart it from snapshot + journal tail, and check the recovered state
// against what the CLIENT was told.  The invariant under test is the one the
// journal exists for: an operation whose reply was sent survives the crash,
// an operation whose reply never left the server either never happened or is
// safely retryable — and money is conserved in every interleaving.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/crash_point.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using testing::TempDir;
using testing::World;

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    world_.add_principal("alice");
    world_.add_principal("bob");
    world_.add_principal("bank");
  }

  /// Builds a storage-backed bank over `state_dir`; recover() has run.
  std::unique_ptr<accounting::AccountingServer> make_bank(
      const std::string& state_dir,
      storage::CrashPoint* crash = nullptr,
      const PrincipalName& name = "bank",
      std::optional<storage::FsyncPolicy> fsync_policy = std::nullopt) {
    auto config = world_.accounting_config(name);
    config.storage_dir = state_dir;
    config.storage_key = storage_key_;
    config.crash_point = crash;
    if (fsync_policy.has_value()) config.fsync_policy = *fsync_policy;
    auto bank =
        std::make_unique<accounting::AccountingServer>(std::move(config));
    EXPECT_TRUE(bank->recover().is_ok());
    world_.net.attach(name, *bank);
    return bank;
  }

  accounting::Check alice_check(std::uint64_t amount,
                                std::uint64_t check_number,
                                const PrincipalName& drawee = "bank",
                                const std::string& account = "payer-acct") {
    return accounting::write_check(
        "alice", world_.principal("alice").identity,
        AccountId{drawee, account}, "bob", "usd", amount, check_number,
        world_.clock.now(), util::kHour);
  }

  World world_;
  TempDir dir_;
  crypto::SymmetricKey storage_key_ = crypto::SymmetricKey::generate();
};

TEST_F(RecoveryTest, FreshDirectoryRecoversToEmptyAndJournalsFromLsnOne) {
  auto bank = make_bank(dir_.sub("bank"));
  EXPECT_EQ(bank->journal_next_lsn(), 1u);
  bank->open_account("payer-acct", "alice",
                     accounting::Balances{{"usd", 100}});
  EXPECT_EQ(bank->journal_next_lsn(), 2u);

  bank = make_bank(dir_.sub("bank"));
  ASSERT_NE(bank->account("payer-acct"), nullptr);
  EXPECT_EQ(bank->account("payer-acct")->balances().balance("usd"), 100);
  EXPECT_EQ(bank->journal_next_lsn(), 2u);
}

TEST_F(RecoveryTest, CleanRestartPreservesEverything) {
  auto bank = make_bank(dir_.sub("bank"));
  bank->open_account("payer-acct", "alice",
                     accounting::Balances{{"usd", 100}});
  bank->open_account("payee-acct", "bob");
  bank->set_route("far-bank", "near-bank");

  auto alice = world_.accounting_client("alice");
  auto bob = world_.accounting_client("bob");
  ASSERT_TRUE(
      alice.transfer("bank", "payer-acct", "payee-acct", "usd", 10).is_ok());
  ASSERT_TRUE(alice.certify("bank", "payer-acct", "bob", "usd", 20, 77,
                            "bank")
                  .is_ok());
  const accounting::Check plain = alice_check(15, 88);
  ASSERT_TRUE(bob.endorse_and_deposit("bank", plain, "payee-acct").is_ok());
  ASSERT_TRUE(
      alice.buy_cashier_check("bank", "payer-acct", "bob", "usd", 25)
          .is_ok());

  // Restart from disk.
  bank = make_bank(dir_.sub("bank"));
  EXPECT_EQ(bank->account("payer-acct")->balances().balance("usd"), 50);
  EXPECT_EQ(bank->account("payer-acct")->held("usd"), 20);
  EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 25);
  EXPECT_EQ(bank->account(std::string(accounting::kCashierAccount))
                ->balances()
                .balance("usd"),
            25);

  // The dedup tables came back too: re-depositing the same check replays
  // the original reply instead of moving money again.
  auto replay = bob.endorse_and_deposit("bank", plain, "payee-acct");
  ASSERT_TRUE(replay.is_ok());
  EXPECT_TRUE(replay.value().cleared);
  EXPECT_EQ(bank->deduped_replies(), 1u);
  EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 25);

  // And the recovered certified hold still settles check #77.
  ASSERT_TRUE(
      bob.endorse_and_deposit("bank", alice_check(20, 77), "payee-acct")
          .is_ok());
  EXPECT_EQ(bank->account("payer-acct")->held("usd"), 0);
  EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 45);
}

// The tentpole invariant, swept across every journal offset: kill the bank
// at append K for K = 1..7 (the fixed op sequence makes exactly 6 appends;
// K = 7 never fires), restart, and require the recovered state to match
// exactly what the client was told — every acknowledged op is present,
// every failed op is absent, and the books balance in between.
TEST_F(RecoveryTest, KillAnywhereSweepRecoversExactlyTheAcknowledgedOps) {
  for (std::uint64_t kill_at = 1; kill_at <= 7; ++kill_at) {
    SCOPED_TRACE("kill at append " + std::to_string(kill_at));
    const std::string state = dir_.sub("bank-k" + std::to_string(kill_at));
    storage::CrashPoint crash;  // inert during setup
    auto bank = make_bank(state, &crash);
    bank->open_account("payer-acct", "alice",
                       accounting::Balances{{"usd", 100}});
    bank->open_account("payee-acct", "bob");

    storage::CrashPlan plan;
    plan.seed = 42 + kill_at;
    plan.min_appends = kill_at;
    plan.max_appends = kill_at;
    plan.tear_mid_write = (kill_at % 2) == 0;  // alternate torn/clean kills
    crash.arm(plan);

    auto alice = world_.accounting_client("alice");
    auto bob = world_.accounting_client("bob");

    // Expected state, updated only when the client sees success.
    std::int64_t payer = 100, payee = 0, cashier = 0, held = 0;
    bool deposited_88 = false;
    const std::vector<std::function<bool()>> ops = {
        [&] {
          if (!alice.transfer("bank", "payer-acct", "payee-acct", "usd", 10)
                   .is_ok()) {
            return false;
          }
          payer -= 10;
          payee += 10;
          return true;
        },
        [&] {
          if (!alice.certify("bank", "payer-acct", "bob", "usd", 20, 77,
                             "bank")
                   .is_ok()) {
            return false;
          }
          held += 20;
          return true;
        },
        [&] {
          if (!bob.endorse_and_deposit("bank", alice_check(15, 88),
                                       "payee-acct")
                   .is_ok()) {
            return false;
          }
          payer -= 15;
          payee += 15;
          deposited_88 = true;
          return true;
        },
        [&] {
          if (!alice.buy_cashier_check("bank", "payer-acct", "bob", "usd",
                                       25)
                   .is_ok()) {
            return false;
          }
          payer -= 25;
          cashier += 25;
          return true;
        },
        [&] {
          if (!alice.transfer("bank", "payer-acct", "payee-acct", "usd", 5)
                   .is_ok()) {
            return false;
          }
          payer -= 5;
          payee += 5;
          return true;
        },
        [&] {
          if (!bob.endorse_and_deposit("bank", alice_check(20, 77),
                                       "payee-acct")
                   .is_ok()) {
            return false;
          }
          payer -= 20;
          held -= 20;
          payee += 20;
          return true;
        },
    };
    bool crashed = false;
    for (const auto& op : ops) {
      if (!op()) crashed = true;
    }
    EXPECT_EQ(crashed, kill_at <= 6);
    EXPECT_EQ(bank->storage_dead(), kill_at <= 6);
    if (crash.dead()) {
      // A dead bank refuses even reads: it can no longer stand behind its
      // in-memory state.
      EXPECT_FALSE(alice.query("bank", "payer-acct").is_ok());
    }

    // Restart from disk (no crash point this time) and compare against
    // exactly what the clients were told.
    bank = make_bank(state);
    const auto balance = [&](const std::string& account) {
      const auto* a = bank->account(account);
      return a == nullptr ? 0 : a->balances().balance("usd");
    };
    EXPECT_EQ(balance("payer-acct"), payer);
    EXPECT_EQ(balance("payee-acct"), payee);
    EXPECT_EQ(balance(std::string(accounting::kCashierAccount)), cashier);
    EXPECT_EQ(bank->account("payer-acct")->held("usd"), held);
    // Conservation: no interleaving of crash and recovery mints or burns.
    EXPECT_EQ(balance("payer-acct") + balance("payee-acct") +
                  balance(std::string(accounting::kCashierAccount)),
              100);

    // Retrying check #88 against the recovered bank converges to
    // exactly-once either way: replayed from the durable dedup table if
    // the original deposit was acknowledged, settled fresh if it died.
    auto retry =
        bob.endorse_and_deposit("bank", alice_check(15, 88), "payee-acct");
    ASSERT_TRUE(retry.is_ok());
    EXPECT_TRUE(retry.value().cleared);
    if (!deposited_88) {
      payer -= 15;
      payee += 15;
    } else {
      EXPECT_GE(bank->deduped_replies(), 1u);
    }
    EXPECT_EQ(balance("payer-acct"), payer);
    EXPECT_EQ(balance("payee-acct"), payee);
  }
}

TEST_F(RecoveryTest, CheckpointCompactsAndRestartUsesTheSnapshot) {
  auto bank = make_bank(dir_.sub("bank"));
  bank->open_account("payer-acct", "alice",
                     accounting::Balances{{"usd", 100}});
  bank->open_account("payee-acct", "bob");
  auto alice = world_.accounting_client("alice");
  ASSERT_TRUE(
      alice.transfer("bank", "payer-acct", "payee-acct", "usd", 30).is_ok());

  ASSERT_TRUE(bank->checkpoint().is_ok());
  // Post-checkpoint mutations land in the rotated journal.
  ASSERT_TRUE(
      alice.transfer("bank", "payer-acct", "payee-acct", "usd", 7).is_ok());

  // Compaction held: one snapshot, one journal.
  std::size_t journals = 0, snapshots = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_.sub("bank"))) {
    const std::string name = entry.path().filename().string();
    journals += name.find(".wal") != std::string::npos ? 1 : 0;
    snapshots += name.find(".snap") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(journals, 1u);
  EXPECT_EQ(snapshots, 1u);

  bank = make_bank(dir_.sub("bank"));
  EXPECT_EQ(bank->account("payer-acct")->balances().balance("usd"), 63);
  EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 37);
}

TEST_F(RecoveryTest, RepeatedRestartsAreIdempotent) {
  {
    auto bank = make_bank(dir_.sub("bank"));
    bank->open_account("payer-acct", "alice",
                       accounting::Balances{{"usd", 100}});
    bank->open_account("payee-acct", "bob");
    auto alice = world_.accounting_client("alice");
    ASSERT_TRUE(alice.transfer("bank", "payer-acct", "payee-acct", "usd", 40)
                    .is_ok());
  }
  for (int round = 0; round < 3; ++round) {
    auto bank = make_bank(dir_.sub("bank"));
    EXPECT_EQ(bank->account("payer-acct")->balances().balance("usd"), 60);
    EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 40);
    EXPECT_EQ(bank->journal_next_lsn(), 4u);
  }
}

TEST_F(RecoveryTest, RecoveredBankRefusesToCertifyASettledCheckNumber) {
  // §4: a bank remembers a check number until the check expires.  Its
  // accept-once cache is in memory and starts empty after a restart, so
  // the journaled dedup table must carry that memory; otherwise a spent
  // number gets a fresh hold that locks the payor's funds until it expires.
  auto bank = make_bank(dir_.sub("bank"));
  bank->open_account("payer-acct", "alice",
                     accounting::Balances{{"usd", 100}});
  bank->open_account("payee-acct", "bob");
  auto alice = world_.accounting_client("alice");
  auto bob = world_.accounting_client("bob");
  ASSERT_TRUE(
      bob.endorse_and_deposit("bank", alice_check(30, 41), "payee-acct")
          .is_ok());
  EXPECT_EQ(
      alice.certify("bank", "payer-acct", "bob", "usd", 10, 41, "bank")
          .code(),
      util::ErrorCode::kReplay);

  bank = make_bank(dir_.sub("bank"));
  EXPECT_EQ(
      alice.certify("bank", "payer-acct", "bob", "usd", 10, 41, "bank")
          .code(),
      util::ErrorCode::kReplay);
  EXPECT_EQ(bank->account("payer-acct")->held("usd"), 0);
  // An unspent number still certifies.
  ASSERT_TRUE(
      alice.certify("bank", "payer-acct", "bob", "usd", 10, 42, "bank")
          .is_ok());
  EXPECT_EQ(bank->account("payer-acct")->held("usd"), 10);
}

TEST_F(RecoveryTest, ForeignCollectionCrashThenRetryConvergesExactlyOnce) {
  world_.add_principal("bank-a");
  world_.add_principal("bank-b");
  auto bank_a = make_bank(dir_.sub("bank-a"), nullptr, "bank-a");
  storage::CrashPoint crash_b;
  auto bank_b = make_bank(dir_.sub("bank-b"), &crash_b, "bank-b");
  bank_a->open_account("payer-acct", "alice",
                       accounting::Balances{{"usd", 100}});
  bank_b->open_account("payee-acct", "bob");

  // Kill B on its next journal append — the ForeignSettled record it
  // writes AFTER the drawee has already settled.  The worst spot: money
  // has moved at A, and B dies before it can remember why.
  storage::CrashPlan plan;
  plan.seed = 7;
  plan.min_appends = 1;
  plan.max_appends = 1;
  crash_b.arm(plan);

  auto bob = world_.accounting_client("bob");
  const accounting::Check check = alice_check(30, 500, "bank-a");
  EXPECT_FALSE(
      bob.endorse_and_deposit("bank-b", check, "payee-acct").is_ok());
  EXPECT_TRUE(bank_b->storage_dead());
  // A settled durably; B rolled back its provisional credit and died.
  EXPECT_EQ(bank_a->account("payer-acct")->balances().balance("usd"), 70);

  // Restart B and retry.  A replays the settlement from its dedup table
  // (no second debit); B credits bob and journals it this time.
  bank_b = make_bank(dir_.sub("bank-b"), nullptr, "bank-b");
  EXPECT_EQ(bank_b->account("payee-acct")->balances().balance("usd"), 0);
  auto retry = bob.endorse_and_deposit("bank-b", check, "payee-acct");
  ASSERT_TRUE(retry.is_ok());
  EXPECT_TRUE(retry.value().cleared);
  EXPECT_EQ(bank_a->deduped_replies(), 1u);
  EXPECT_EQ(bank_a->account("payer-acct")->balances().balance("usd"), 70);
  EXPECT_EQ(bank_b->account("payee-acct")->balances().balance("usd"), 30);

  // And the outcome survives yet another restart of B.
  bank_b = make_bank(dir_.sub("bank-b"), nullptr, "bank-b");
  EXPECT_EQ(bank_b->account("payee-acct")->balances().balance("usd"), 30);
}

// Group commit under a dying disk, swept across fsync barriers: with
// FsyncPolicy::kGroup a reply leaves only after the fsync covering its
// record, so when barrier K fails the client has acknowledgments for
// exactly the ops whose barriers completed — and the recovered state
// must contain AT LEAST those ops (the write-ahead invariant: successful
// replies are a subset of recovered records; the op in flight at the
// failure may or may not have reached the disk, and its reply was
// withheld either way).
TEST_F(RecoveryTest, GroupCommitFsyncFailureWithholdsTheUncoveredReply) {
  constexpr int kTransfers = 5;
  for (std::uint64_t fail_at = 1; fail_at <= 3; ++fail_at) {
    SCOPED_TRACE("fsync barrier " + std::to_string(fail_at) + " fails");
    const std::string state = dir_.sub("bank-g" + std::to_string(fail_at));
    storage::CrashPoint crash;
    crash.fail_fsync_at(fail_at);
    auto bank = make_bank(state, &crash, "bank",
                          storage::FsyncPolicy::kGroup);
    bank->open_account("payer-acct", "alice",
                       accounting::Balances{{"usd", 100}});
    bank->open_account("payee-acct", "bob");

    // Sequential clients: every transfer is its own commit barrier, so
    // the first fail_at-1 are acknowledged and transfer fail_at gets the
    // "group fsync failed" refusal.
    auto alice = world_.accounting_client("alice");
    int acked = 0;
    for (int i = 0; i < kTransfers; ++i) {
      if (alice.transfer("bank", "payer-acct", "payee-acct", "usd", 10)
              .is_ok()) {
        acked += 1;
      }
    }
    EXPECT_EQ(acked, static_cast<int>(fail_at) - 1);
    EXPECT_TRUE(bank->storage_dead());
    // Dead means dead: even queries are refused from here on.
    EXPECT_FALSE(alice.query("bank", "payer-acct").is_ok());

    // Restart and check the write-ahead invariant.
    bank = make_bank(state);
    const std::int64_t payer =
        bank->account("payer-acct")->balances().balance("usd");
    const std::int64_t payee =
        bank->account("payee-acct")->balances().balance("usd");
    EXPECT_LE(payer, 100 - 10 * acked) << "an acknowledged transfer is gone";
    EXPECT_GE(payer, 100 - 10 * (acked + 1))
        << "more than the in-flight op leaked past the failed barrier";
    EXPECT_EQ(payer + payee, 100) << "money minted or burned";
  }
}

TEST_F(RecoveryTest, GroupCommitCleanRunMatchesEveryRecordState) {
  // Without failures, kGroup must be invisible: same recovered state as
  // the strict policy, same replies — only fewer fsyncs.
  const std::string state = dir_.sub("bank-group-clean");
  auto bank =
      make_bank(state, nullptr, "bank", storage::FsyncPolicy::kGroup);
  bank->open_account("payer-acct", "alice",
                     accounting::Balances{{"usd", 100}});
  bank->open_account("payee-acct", "bob");
  auto alice = world_.accounting_client("alice");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        alice.transfer("bank", "payer-acct", "payee-acct", "usd", 10)
            .is_ok());
  }
  const auto stats = bank->journal_group_stats();
  EXPECT_EQ(stats.fsyncs, 4u);  // one barrier per sequential transfer
  // Each barrier covered its transfer (plus setup records on the first).
  EXPECT_GE(stats.committed, 4u);

  bank = make_bank(state, nullptr, "bank", storage::FsyncPolicy::kGroup);
  EXPECT_EQ(bank->account("payer-acct")->balances().balance("usd"), 60);
  EXPECT_EQ(bank->account("payee-acct")->balances().balance("usd"), 40);
}

TEST_F(RecoveryTest, RecoverWithoutKeyFails) {
  auto config = world_.accounting_config("bank");
  config.storage_dir = dir_.sub("bank");
  accounting::AccountingServer bank(std::move(config));
  EXPECT_FALSE(bank.recover().is_ok());
}

}  // namespace
}  // namespace rproxy
