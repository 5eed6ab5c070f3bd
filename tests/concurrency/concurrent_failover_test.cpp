// Failover re-provisioning under threads (TSan coverage, see
// .github/workflows/ci.yml): writers drive group commit — each acked reply
// passing through the swappable replication barrier — WHILE another thread
// keeps re-arming that barrier with fresh JournalShippers over changing
// standby sets (what every FailoverCoordinator heal does) and a third
// compacts the journal underneath them.  The shared_ptr barrier swap must
// be race-free and never strand an in-flight request on a freed shipper.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::testing::World;

TEST(ConcurrentFailover, BarrierReArmRacesGroupCommitAndCheckpoints) {
  World world;
  rproxy::testing::TempDir tmp;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  world.add_principal("bank");
  world.add_principal("bank-r1");
  world.add_principal("bank-r2");
  world.add_principal("alice");

  auto config = world.accounting_config("bank");
  config.storage_dir = tmp.sub("bank");
  config.storage_key = key;
  AccountingServer primary(std::move(config));
  ASSERT_TRUE(primary.recover().is_ok());
  world.net.attach("bank", primary);
  primary.open_account("a1", "alice", Balances{{"usd", 1'000'000}});
  primary.open_account("a2", "alice", Balances{{"usd", 1'000'000}});

  std::vector<std::unique_ptr<AccountingServer>> replicas;
  std::vector<std::unique_ptr<StandbyReplayer>> standbys;
  for (const char* name : {"bank-r1", "bank-r2"}) {
    replicas.push_back(
        std::make_unique<AccountingServer>(world.accounting_config(name)));
    StandbyReplayer::Config rc;
    rc.name = name;
    rc.primary = "bank";
    rc.server = replicas.back().get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    standbys.push_back(std::make_unique<StandbyReplayer>(std::move(rc)));
    world.net.attach(name, *standbys.back());
  }
  const auto make_shipper = [&](std::vector<PrincipalName> names) {
    JournalShipper::Config sc;
    sc.primary = &primary;
    sc.net = &world.net;
    sc.standbys = std::move(names);
    return std::make_shared<JournalShipper>(std::move(sc));
  };
  const auto arm = [&](std::shared_ptr<JournalShipper> shipper) {
    // The heal-loop idiom: the barrier lambda OWNS its shipper, so a
    // request that loaded the old barrier keeps the old shipper alive
    // across the swap.
    primary.set_replication_barrier([shipper](std::uint64_t lsn) {
      return shipper->ship_until(lsn);
    });
  };
  arm(make_shipper({"bank-r1", "bank-r2"}));

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 40;
  std::atomic<bool> done{false};
  std::atomic<int> transfer_failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = world.accounting_client("alice");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const bool forward = (w + i) % 2 == 0;
        if (!client
                 .transfer("bank", forward ? "a1" : "a2",
                           forward ? "a2" : "a1", "usd", 1)
                 .is_ok()) {
          transfer_failures.fetch_add(1);
        }
      }
    });
  }
  // Re-provisioning loop: every few milliseconds the barrier is re-armed
  // with a fresh shipper over a different standby set, racing the writers'
  // barrier loads and each other's shipper teardown.
  std::thread healer([&] {
    int round = 0;
    while (!done.load()) {
      switch (round++ % 3) {
        case 0: arm(make_shipper({"bank-r1"})); break;
        case 1: arm(make_shipper({"bank-r2"})); break;
        default: arm(make_shipper({"bank-r1", "bank-r2"})); break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Checkpoints compact the journal underneath whichever shipper is live,
  // forcing fresh shippers (acked 0) onto the snapshot-bootstrap path.
  std::thread checkpointer([&] {
    while (!done.load()) {
      (void)primary.checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  for (auto& writer : writers) writer.join();
  done.store(true);
  healer.join();
  checkpointer.join();
  EXPECT_EQ(transfer_failures.load(), 0);

  // Quiesced: one final full-set shipper converges both replicas on the
  // primary's durable state.
  auto final_shipper = make_shipper({"bank-r1", "bank-r2"});
  ASSERT_TRUE(
      final_shipper->ship_until(primary.journal_durable_lsn()).is_ok());
  for (const auto& standby : standbys) {
    EXPECT_EQ(standby->received_lsn(), primary.journal_durable_lsn());
    EXPECT_EQ(standby->apply_failures(), 0u);
  }
  for (const auto& replica : replicas) {
    const auto* a1 = replica->account("a1");
    const auto* a2 = replica->account("a2");
    ASSERT_NE(a1, nullptr);
    ASSERT_NE(a2, nullptr);
    EXPECT_EQ(a1->balances().balance("usd") + a2->balances().balance("usd"),
              2'000'000);
    EXPECT_EQ(a1->balances().balance("usd"),
              primary.account("a1")->balances().balance("usd"));
  }
}

}  // namespace
}  // namespace rproxy
