// Replication under threads (TSan coverage, see .github/workflows/ci.yml):
// journal shipping streams concurrently with writers driving group commit,
// a checkpoint thread compacting underneath the shipper, and — at the end —
// two sibling standbys racing to promote against one shared directory
// (exactly one may win).  Run under -fsanitize=thread this proves the
// shipper/standby/promotion paths are race-free; without TSan it still
// checks convergence and single-winner promotion.
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
using accounting::sharding::ShardDirectory;
using accounting::sharding::uniform_map;
using rproxy::testing::World;

TEST(ConcurrentReplication, ShippingRacesGroupCommitCheckpointAndPromotion) {
  World world;
  rproxy::testing::TempDir tmp;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  world.add_principal("bank");
  world.add_principal("bank-r1");
  world.add_principal("bank-r2");
  world.add_principal("alice");
  ShardDirectory dir;
  ASSERT_TRUE(dir.install(uniform_map({"bank"}, 1)));

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
    rc.directory = &dir;
    rc.jitter_seed = standbys.size() + 1;
    standbys.push_back(std::make_unique<StandbyReplayer>(std::move(rc)));
    world.net.attach(name, *standbys.back());
  }
  JournalShipper::Config sc;
  sc.primary = &primary;
  sc.net = &world.net;
  sc.standbys = {"bank-r1", "bank-r2"};
  JournalShipper shipper(std::move(sc));

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
  // The shipper streams the journal tail WHILE the writers drive group
  // commit — reads under the fsync watermark racing appends above it.
  std::thread ship_loop([&] {
    while (!done.load()) {
      (void)shipper.ship_once();
      std::this_thread::yield();
    }
  });
  // Checkpoints compact the journal underneath the shipper, forcing the
  // bootstrap path to race the tail-read path.
  std::thread checkpointer([&] {
    while (!done.load()) {
      (void)primary.checkpoint();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& writer : writers) writer.join();
  done.store(true);
  ship_loop.join();
  checkpointer.join();
  EXPECT_EQ(transfer_failures.load(), 0);

  // Quiesced: one final shipped round must converge every replica.
  ASSERT_TRUE(shipper.ship_until(primary.journal_durable_lsn()).is_ok());
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

  // Promotion race: both standbys promote at once against the shared
  // directory.  ShardDirectory::install is strictly-newer-only, so
  // exactly one must win; the loser stays a standby.
  std::atomic<int> winners{0};
  std::vector<std::thread> racers;
  for (const auto& standby : standbys) {
    racers.emplace_back([&, s = standby.get()] {
      if (s->promote().is_ok()) winners.fetch_add(1);
    });
  }
  for (auto& racer : racers) racer.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(standbys[0]->promoted(), standbys[1]->promoted());
}

}  // namespace
}  // namespace rproxy
