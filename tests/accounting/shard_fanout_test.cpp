// ShardRouter over net::FanoutClient (PR 8 leftover): cross-shard clearing
// legs pipelined over real TCP connections, with per-op statuses and a
// sequential fallback for everything the fanout cannot carry.  The router
// builds each leg's challenge+deposit exchange from AccountingClient's
// envelope builders, so authorization stays challenge-bound per leg.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accounting/sharding/migration.hpp"
#include "accounting/sharding/shard_router.hpp"
#include "net/event_loop.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using accounting::sharding::ShardDirectory;
using accounting::sharding::ShardMapService;
using accounting::sharding::ShardRouter;
using accounting::sharding::uniform_map;
using rproxy::testing::World;

/// Two gated shards on the SimNet (the inter-shard collection path), each
/// ALSO exposed over an EventLoopServer (the router's fanout deposit path),
/// plus a map service and a router.
struct FanoutWorld {
  World world;
  ShardDirectory dir;
  std::unique_ptr<accounting::AccountingServer> s1;
  std::unique_ptr<accounting::AccountingServer> s2;
  std::unique_ptr<ShardMapService> map_service;
  net::EventLoopServer tcp1;
  net::EventLoopServer tcp2;

  FanoutWorld() {
    world.add_principal("router");
    world.add_principal("s1");
    world.add_principal("s2");
    EXPECT_TRUE(dir.install(uniform_map({"s1", "s2"}, 1)));
    const auto gated = [&](const char* name) {
      auto config = world.accounting_config(name);
      config.shard = &dir;
      return config;
    };
    s1 = std::make_unique<accounting::AccountingServer>(gated("s1"));
    s2 = std::make_unique<accounting::AccountingServer>(gated("s2"));
    world.net.attach("s1", *s1);
    world.net.attach("s2", *s2);
    map_service = std::make_unique<ShardMapService>("shard-map", dir);
    world.net.attach("shard-map", *map_service);
    tcp1.attach("s1", *s1);
    tcp2.attach("s2", *s2);
    EXPECT_TRUE(tcp1.start().is_ok());
    EXPECT_TRUE(tcp2.start().is_ok());
  }

  [[nodiscard]] accounting::AccountingServer& shard_of(
      const std::string& account) {
    return dir.home(account) == "s1" ? *s1 : *s2;
  }

  std::vector<std::string> open_on(const PrincipalName& shard, int n,
                                   std::int64_t balance) {
    std::vector<std::string> names;
    for (int i = 0; static_cast<int>(names.size()) < n; ++i) {
      const std::string name =
          "acct-" + std::string(shard) + "-" + std::to_string(i);
      if (dir.home(name) != shard) continue;
      shard_of(name).open_account(name, "router",
                                  accounting::Balances{{"usd", balance}});
      names.push_back(name);
    }
    return names;
  }

  [[nodiscard]] ShardRouter router() {
    ShardRouter::Config config;
    config.net = &world.net;
    config.clock = &world.clock;
    config.self = "router";
    config.identity_cert = world.principal("router").cert;
    config.identity_key = world.principal("router").identity;
    config.map_service = "shard-map";
    return ShardRouter(std::move(config), uniform_map({"s1", "s2"}, 1));
  }
};

TEST(ShardRouterFanout, TransferManyPipelinesCrossShardLegs) {
  FanoutWorld w;
  const auto on_s1 = w.open_on("s1", 3, 100);
  const auto on_s2 = w.open_on("s2", 3, 100);
  auto router = w.router();
  ASSERT_TRUE(router.attach_fanout("s1", "127.0.0.1", w.tcp1.port()).is_ok());
  ASSERT_TRUE(router.attach_fanout("s2", "127.0.0.1", w.tcp2.port()).is_ok());

  // Four cross-shard legs (two per direction) plus one intra-shard op that
  // must take the sequential fallback.
  std::vector<ShardRouter::TransferOp> ops = {
      {on_s1[0], on_s2[0], "usd", 10},
      {on_s2[1], on_s1[1], "usd", 20},
      {on_s1[2], on_s2[2], "usd", 30},
      {on_s2[0], on_s1[0], "usd", 5},
      {on_s1[0], on_s1[1], "usd", 7},  // intra-shard: fallback path
  };
  const auto results = router.transfer_many(ops);
  ASSERT_EQ(results.size(), ops.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].is_ok()) << "op " << i << ": " << results[i];
  }
  EXPECT_EQ(router.pipelined_transfers(), 4u);
  EXPECT_EQ(router.cross_shard_transfers(), 4u);
  EXPECT_EQ(router.intra_shard_transfers(), 1u);

  // Balances land exactly as if each leg had been a sequential transfer.
  EXPECT_EQ(w.s1->account(on_s1[0])->balances().balance("usd"),
            100 - 10 + 5 - 7);
  EXPECT_EQ(w.s1->account(on_s1[1])->balances().balance("usd"), 100 + 20 + 7);
  EXPECT_EQ(w.s1->account(on_s1[2])->balances().balance("usd"), 100 - 30);
  EXPECT_EQ(w.s2->account(on_s2[0])->balances().balance("usd"),
            100 + 10 - 5);
  EXPECT_EQ(w.s2->account(on_s2[1])->balances().balance("usd"), 100 - 20);
  EXPECT_EQ(w.s2->account(on_s2[2])->balances().balance("usd"), 100 + 30);
  // Nothing stuck provisional on either shard.
  EXPECT_EQ(w.s1->uncollected_total(), 0);
  EXPECT_EQ(w.s2->uncollected_total(), 0);
}

TEST(ShardRouterFanout, UnattachedTargetShardFallsBack) {
  FanoutWorld w;
  const std::string from = w.open_on("s1", 1, 100)[0];
  const std::string to = w.open_on("s2", 1, 100)[0];
  auto router = w.router();
  // Only s1 is attached; a leg TARGETING s2 cannot ride the fanout.
  ASSERT_TRUE(router.attach_fanout("s1", "127.0.0.1", w.tcp1.port()).is_ok());

  const auto results =
      router.transfer_many({{from, to, "usd", 40}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].is_ok()) << results[0];
  EXPECT_EQ(router.cross_shard_transfers(), 1u);
  EXPECT_EQ(router.pipelined_transfers(), 0u);
  EXPECT_EQ(w.s2->account(to)->balances().balance("usd"), 140);
}

TEST(ShardRouterFanout, PerOpStatusIsolatesAFailedLeg) {
  FanoutWorld w;
  const auto on_s1 = w.open_on("s1", 2, 100);
  const auto on_s2 = w.open_on("s2", 2, 100);
  auto router = w.router();
  ASSERT_TRUE(router.attach_fanout("s2", "127.0.0.1", w.tcp2.port()).is_ok());

  // The middle leg draws on an account that does not exist: its collection
  // fails at the source shard, but the legs around it must clear.
  const auto results = router.transfer_many({
      {on_s1[0], on_s2[0], "usd", 10},
      {"acct-s1-missing", on_s2[1], "usd", 10},
      {on_s1[1], on_s2[1], "usd", 15},
  });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].is_ok()) << results[0];
  EXPECT_FALSE(results[1].is_ok());
  EXPECT_TRUE(results[2].is_ok()) << results[2];
  EXPECT_EQ(router.pipelined_transfers(), 2u);
  EXPECT_EQ(w.s2->account(on_s2[0])->balances().balance("usd"), 110);
  EXPECT_EQ(w.s2->account(on_s2[1])->balances().balance("usd"), 115);
}

}  // namespace
}  // namespace rproxy
