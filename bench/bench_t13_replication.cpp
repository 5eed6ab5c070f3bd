// T13 — journal-shipping replication (EXPERIMENTS.md T13).
//
// Three questions, one row family each:
//
//   BM_JournalShipCatchup/frames:{16,64,256}
//       replication lag drained in bulk: a fresh standby catches up on a
//       preloaded journal through ship rounds of the given batch size.
//       items/sec = replicated records/sec; bigger batches amortize the
//       per-RPC framing.  The committed-tail read costs O(frames
//       shipped) per round (the journal's frame index), so it no longer
//       favours big batches.
//   BM_SemiSyncTransfer/standbys:{0,1,2}
//       the price of durability-before-ack: a full authenticated transfer
//       through the group commit and the replication barrier.  standbys:0
//       is the async baseline; each standby adds one ship round trip to
//       every reply.
//   BM_PromotionCatchup/frames:{64,256}
//       takeover cost after the failure detector fires: promote a warm
//       standby holding `frames` received-but-unapplied records and drain
//       them through the recovery appliers before it may serve.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accounting/clearing.hpp"
#include "accounting/replication/journal_shipper.hpp"
#include "accounting/replication/standby.hpp"
#include "bench_util.hpp"
#include "testing/tempdir.hpp"

namespace {

using namespace rproxy;
using accounting::AccountingServer;
using accounting::Balances;
using accounting::replication::JournalShipper;
using accounting::replication::StandbyReplayer;
using rproxy::bench::record_protocol_cost;
using rproxy::testing::World;

constexpr int kPreloadRecords = 512;

/// Primary with a preloaded journal of `records` transfer mutations.
struct PrimaryFixture {
  World world;
  rproxy::testing::TempDir tmp;
  crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  std::unique_ptr<AccountingServer> primary;

  explicit PrimaryFixture(int records) {
    world.add_principal("bank");
    world.add_principal("alice");
    for (int i = 0; i < 4; ++i) {
      world.add_principal("replica-" + std::to_string(i));
    }
    auto config = world.accounting_config("bank");
    config.storage_dir = tmp.sub("bank");
    config.storage_key = key;
    primary = std::make_unique<AccountingServer>(std::move(config));
    if (!primary->recover().is_ok()) std::abort();
    world.net.attach("bank", *primary);
    primary->open_account("a1", "alice", Balances{{"usd", 1'000'000}});
    primary->open_account("a2", "alice", Balances{{"usd", 1'000'000}});
    auto client = world.accounting_client("alice");
    for (int i = 0; i < records; ++i) {
      const bool fwd = i % 2 == 0;
      if (!client
               .transfer("bank", fwd ? "a1" : "a2", fwd ? "a2" : "a1",
                         "usd", 1)
               .is_ok()) {
        std::abort();
      }
    }
  }

  /// Fresh memory-only standby attached as `name`.
  struct Standby {
    std::unique_ptr<AccountingServer> server;
    std::unique_ptr<StandbyReplayer> replayer;
  };
  Standby make_standby(const std::string& name, bool hot) {
    Standby s;
    s.server =
        std::make_unique<AccountingServer>(world.accounting_config(name));
    StandbyReplayer::Config rc;
    rc.name = name;
    rc.primary = "bank";
    rc.server = s.server.get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    rc.apply_on_receive = hot;
    s.replayer = std::make_unique<StandbyReplayer>(std::move(rc));
    world.net.attach(name, *s.replayer);
    return s;
  }
};

void BM_JournalShipCatchup(benchmark::State& state) {
  PrimaryFixture fx(kPreloadRecords);
  const std::uint64_t durable = fx.primary->journal_durable_lsn();
  for (auto _ : state) {
    state.PauseTiming();
    auto standby = fx.make_standby("replica-0", /*hot=*/true);
    JournalShipper::Config sc;
    sc.primary = fx.primary.get();
    sc.net = &fx.world.net;
    sc.standbys = {"replica-0"};
    sc.max_frames_per_ship = static_cast<std::size_t>(state.range(0));
    sc.max_attempts = kPreloadRecords;
    JournalShipper shipper(std::move(sc));
    state.ResumeTiming();
    if (!shipper.ship_until(durable).is_ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(durable));
}
BENCHMARK(BM_JournalShipCatchup)
    ->ArgName("frames")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SemiSyncTransfer(benchmark::State& state) {
  const int standbys = static_cast<int>(state.range(0));
  World world;
  rproxy::testing::TempDir tmp;
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  world.add_principal("bank");
  world.add_principal("alice");
  std::unique_ptr<JournalShipper> shipper;
  auto config = world.accounting_config("bank");
  config.storage_dir = tmp.sub("bank");
  config.storage_key = key;
  config.replication_barrier = [&shipper](std::uint64_t lsn) {
    return shipper ? shipper->ship_until(lsn) : util::Status::ok();
  };
  AccountingServer primary(std::move(config));
  if (!primary.recover().is_ok()) std::abort();
  world.net.attach("bank", primary);
  primary.open_account("a1", "alice", Balances{{"usd", 1'000'000}});
  primary.open_account("a2", "alice", Balances{{"usd", 1'000'000}});

  std::vector<std::unique_ptr<AccountingServer>> replicas;
  std::vector<std::unique_ptr<StandbyReplayer>> replayers;
  std::vector<PrincipalName> names;
  for (int i = 0; i < standbys; ++i) {
    const std::string name = "replica-" + std::to_string(i);
    world.add_principal(name);
    replicas.push_back(
        std::make_unique<AccountingServer>(world.accounting_config(name)));
    StandbyReplayer::Config rc;
    rc.name = name;
    rc.primary = "bank";
    rc.server = replicas.back().get();
    rc.clock = &world.clock;
    rc.storage_key = key;
    replayers.push_back(std::make_unique<StandbyReplayer>(std::move(rc)));
    world.net.attach(name, *replayers.back());
    names.push_back(name);
  }
  if (standbys > 0) {
    JournalShipper::Config sc;
    sc.primary = &primary;
    sc.net = &world.net;
    sc.standbys = names;
    shipper = std::make_unique<JournalShipper>(std::move(sc));
  }

  auto client = world.accounting_client("alice");
  int i = 0;
  for (auto _ : state) {
    const bool fwd = i++ % 2 == 0;
    if (!client
             .transfer("bank", fwd ? "a1" : "a2", fwd ? "a2" : "a1", "usd",
                       1)
             .is_ok()) {
      std::abort();
    }
  }
  record_protocol_cost(state, world.net, [&] {
    const bool fwd = i++ % 2 == 0;
    (void)client.transfer("bank", fwd ? "a1" : "a2", fwd ? "a2" : "a1",
                          "usd", 1);
  });
}
BENCHMARK(BM_SemiSyncTransfer)
    ->ArgName("standbys")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_PromotionCatchup(benchmark::State& state) {
  const int frames = static_cast<int>(state.range(0));
  PrimaryFixture fx(frames);
  const std::uint64_t durable = fx.primary->journal_durable_lsn();
  for (auto _ : state) {
    state.PauseTiming();
    // A warm standby: every record received and queued, none applied —
    // the worst-case catch-up a takeover can face.
    auto standby = fx.make_standby("replica-0", /*hot=*/false);
    JournalShipper::Config sc;
    sc.primary = fx.primary.get();
    sc.net = &fx.world.net;
    sc.standbys = {"replica-0"};
    sc.max_attempts = frames;
    JournalShipper shipper(std::move(sc));
    if (!shipper.ship_until(durable).is_ok()) std::abort();
    state.ResumeTiming();
    if (!standby.replayer->promote().is_ok()) std::abort();
    if (!standby.replayer->apply_pending().is_ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(durable));
}
BENCHMARK(BM_PromotionCatchup)
    ->ArgName("frames")
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace
