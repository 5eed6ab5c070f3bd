// Property: shipped ⊆ fsynced.  For every seeded crash point in the
// primary's append path, the standby's replicated watermark never exceeds
// the primary's durable LSN — at every step, including the step the
// primary dies — and re-shipping from an older watermark is idempotent.
// Failures print the seed; replay with CHAOS_SEED=<n>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "storage/crash_point.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"
#include "util/rng.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::testing::World;

std::vector<std::uint64_t> seed_matrix(std::uint64_t upto) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= upto; ++s) seeds.push_back(s);
  if (const char* env = std::getenv("CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  return seeds;
}

std::int64_t replica_balance(const AccountingServer& server,
                             const std::string& account) {
  const auto* acct = server.account(account);
  return acct == nullptr ? -1 : acct->balances().balance("usd");
}

TEST(ReplicationLsnProperty, ReplicatedWatermarkNeverPassesDurable) {
  int crashes = 0;
  for (const std::uint64_t seed : seed_matrix(24)) {
    SCOPED_TRACE("replay with CHAOS_SEED=" + std::to_string(seed));
    World world;
    rproxy::testing::TempDir tmp;
    const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
    world.add_principal("bank");
    world.add_principal("bankb");
    world.add_principal("alice");

    storage::CrashPoint crash;
    auto config = world.accounting_config("bank");
    config.storage_dir = tmp.sub("bank");
    config.storage_key = key;
    config.crash_point = &crash;
    AccountingServer primary(std::move(config));
    ASSERT_TRUE(primary.recover().is_ok());
    world.net.attach("bank", primary);
    primary.open_account("a1", "alice", Balances{{"usd", 100000}});
    primary.open_account("a2", "alice", Balances{{"usd", 100000}});
    if (seed % 3 == 0) {
      // Compacted prefix: the standby must bootstrap from the snapshot.
      ASSERT_TRUE(primary.checkpoint().is_ok());
    }

    AccountingServer replica(world.accounting_config("bankb"));
    StandbyReplayer::Config rc;
    rc.name = "bankb";
    rc.primary = "bank";
    rc.server = &replica;
    rc.clock = &world.clock;
    rc.storage_key = key;
    StandbyReplayer standby(std::move(rc));
    world.net.attach("bankb", standby);
    JournalShipper::Config sc;
    sc.primary = &primary;
    sc.net = &world.net;
    sc.standbys = {"bankb"};
    JournalShipper shipper(std::move(sc));

    storage::CrashPlan plan;
    plan.seed = seed * 17 + 3;
    plan.min_appends = 1;
    plan.max_appends = 12;
    plan.tear_mid_write = (seed % 2) == 0;
    crash.arm(plan);

    auto client = world.accounting_client("alice");
    util::Rng rng(seed);
    const auto check_invariant = [&] {
      const std::uint64_t durable = primary.journal_durable_lsn();
      ASSERT_LE(standby.received_lsn(), durable);
      ASSERT_LE(standby.applied_lsn(), standby.received_lsn());
      ASSERT_LE(standby.primary_durable_lsn(), durable);
    };
    for (int i = 0; i < 40 && !primary.storage_dead(); ++i) {
      const auto amount = static_cast<std::uint64_t>(rng.range(1, 9));
      // The crash point fires inside these appends; outcomes don't matter,
      // the invariant below does.
      (void)client.transfer("bank", i % 2 == 0 ? "a1" : "a2",
                            i % 2 == 0 ? "a2" : "a1", "usd", amount);
      // A staged setup record keeps a live gap between appended and
      // durable, so the "never ship past the fsync watermark" half of the
      // property has something to bite on.
      primary.open_account("staged-" + std::to_string(i), "alice");
      (void)shipper.ship_once();
      check_invariant();
    }
    if (primary.storage_dead()) crashes += 1;
    // One more round after the (possible) crash: the committed tail can
    // still drain, but never past what was fsynced before death.
    (void)shipper.ship_once();
    check_invariant();

    // Resend idempotence: forget half the acked prefix and re-ship.  The
    // standby skips every frame at or below its watermark — state and
    // watermark end exactly where they were.
    const std::uint64_t received_before = standby.received_lsn();
    const std::int64_t a1 = replica_balance(replica, "a1");
    const std::int64_t a2 = replica_balance(replica, "a2");
    shipper.rewind("bankb", received_before / 2);
    (void)shipper.ship_once();
    (void)shipper.ship_once();
    EXPECT_EQ(standby.received_lsn(), received_before);
    EXPECT_EQ(replica_balance(replica, "a1"), a1);
    EXPECT_EQ(replica_balance(replica, "a2"), a2);
    EXPECT_EQ(standby.apply_failures(), 0u);
  }
  // The matrix must actually kill primaries mid-shipping, or the property
  // was never tested at a crash point.
  EXPECT_GE(crashes, 8);
}

}  // namespace
}  // namespace rproxy
