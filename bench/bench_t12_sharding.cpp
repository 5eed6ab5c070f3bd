// T12 — sharded accounting scaling (EXPERIMENTS.md T12).
//
// The tentpole claim: partitioning the bank across N shards scales
// aggregate transfer throughput near-linearly in N, because each shard
// owns an independent commit pipe.  On this box that claim cannot be
// measured with real fsyncs alone — one CPU core and one disk serialize
// everything — so, as in T11, the headline rows model the per-shard
// commit cost explicitly: every transfer occupies its home shard's commit
// pipe (a per-shard mutex) for kModeledCommitUs of wall time, sleeps
// overlap across shards, and CPU cost stays real (full challenge +
// ed25519 sign/verify per transfer through the live ShardRouter).  The
// `durable` rows run the same workload against real journals with
// per-record fsync and document the single-spindle baseline the model
// abstracts away.
//
// Row families:
//   BM_ShardedTransferScaling/shards:{1,2,4,8}/cross_pct:{0,10}
//       headline — acceptance: shards:4/cross_pct:0 >= 3x shards:1.
//   BM_ShardedTransferScaling cross_pct sweep at shards:4
//       prices the cross-shard tax: each cross transfer burns extra
//       crypto (check write + endorsement chain) and occupies TWO commit
//       pipes (drawee + collecting shard).
//   BM_DurableShardedTransfer/shards:{1,4}
//       real fsync, no model — the CPU/disk-capped reality check.
//   BM_RouterTransferCost/cross:{0,1}
//       single-threaded per-op cost of the routing tier itself, with
//       SimNet message/byte counters.
//   BM_FanoutGatherFourShards vs BM_PerConnectionGatherFourShards
//       the fan-out client satellite, quantified: one reply from each of
//       4 shards (1 ms handler) per round; the fan-out client keeps all
//       four in flight, the per-connection client eats the sum.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "accounting/accounting_server.hpp"
#include "accounting/check.hpp"
#include "accounting/sharding/shard_router.hpp"
#include "bench_util.hpp"
#include "net/event_loop.hpp"
#include "net/fanout.hpp"
#include "net/tcp_transport.hpp"
#include "storage/journal.hpp"
#include "testing/tempdir.hpp"
#include "util/rng.hpp"

namespace {

using namespace rproxy;
using accounting::sharding::ShardDirectory;
using accounting::sharding::ShardRouter;
using accounting::sharding::uniform_map;

constexpr std::int64_t kModeledCommitUs = 2000;
// Headline rows draw Zipfian traffic from a 10^5-account bank; durable
// rows keep the pool small because every open is a journaled fsync.
constexpr int kModeledTotalAccounts = 100'000;
constexpr int kDurableTotalAccounts = 64;
constexpr int kBatchPerShard = 16;

/// Zipfian(s=1) over ranks 0..n-1: the hot-account skew real ledgers see.
struct Zipf {
  std::vector<double> cdf;
  explicit Zipf(int n, double s = 1.0) {
    double sum = 0;
    for (int i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), s);
      cdf.push_back(sum);
    }
    for (double& c : cdf) c /= sum;
  }
  [[nodiscard]] int sample(util::Rng& rng) const {
    const double u =
        static_cast<double>(rng.range(0, 1'000'000 - 1)) / 1'000'000.0;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf.begin(), static_cast<std::ptrdiff_t>(cdf.size()) - 1));
  }
};

std::string shard_name(int i) { return "shard-" + std::to_string(i); }

/// N gated shards + per-shard accounts + one ShardRouter per worker.
/// `durable` swaps the modeled commit pipe for a real journal with
/// per-record fsync.
struct ShardedBenchWorld {
  testing::World world;
  ShardDirectory dir;
  rproxy::testing::TempDir tmp;
  std::vector<std::unique_ptr<accounting::AccountingServer>> shards;
  std::vector<std::vector<std::string>> accounts;  // [shard][rank]
  std::deque<std::mutex> commit_pipes;
  int num_shards;

  ShardedBenchWorld(int n, bool durable) : num_shards(n) {
    world.add_principal("router");
    std::vector<PrincipalName> members;
    for (int i = 0; i < n; ++i) {
      world.add_principal(shard_name(i));
      members.push_back(shard_name(i));
    }
    if (!dir.install(uniform_map(members, 1))) std::abort();
    for (int i = 0; i < n; ++i) {
      auto config = world.accounting_config(shard_name(i));
      config.shard = &dir;
      if (durable) {
        config.storage_dir = tmp.sub(shard_name(i));
        config.storage_key = crypto::SymmetricKey::generate();
        config.fsync_policy = storage::FsyncPolicy::kEveryRecord;
      }
      shards.push_back(std::make_unique<accounting::AccountingServer>(
          std::move(config)));
      if (durable && !shards.back()->recover().is_ok()) std::abort();
      world.net.attach(shard_name(i), *shards.back());
      commit_pipes.emplace_back();
    }
    // One pass over the whole account space: every name opens at its
    // ring-assigned home, so per-shard pool sizes reflect real placement.
    accounts.resize(static_cast<std::size_t>(n));
    const int total =
        durable ? kDurableTotalAccounts : kModeledTotalAccounts;
    for (int i = 0; i < total; ++i) {
      const std::string name = "acct-" + std::to_string(i);
      const PrincipalName home = dir.home(name);
      for (int s = 0; s < n; ++s) {
        if (home != shard_name(s)) continue;
        shards[s]->open_account(name, "router",
                                accounting::Balances{{"usd", 1LL << 40}});
        accounts[static_cast<std::size_t>(s)].push_back(name);
        break;
      }
    }
  }

  [[nodiscard]] std::unique_ptr<ShardRouter> make_router() {
    ShardRouter::Config config;
    config.net = &world.net;
    config.clock = &world.clock;
    config.self = "router";
    config.identity_cert = world.principal("router").cert;
    config.identity_key = world.principal("router").identity;
    return std::make_unique<ShardRouter>(std::move(config),
                                         uniform_map(members_(), 1));
  }

  /// Occupies shard i's commit pipe for the modeled commit latency.
  void modeled_commit(int i) {
    std::lock_guard lock(commit_pipes[static_cast<std::size_t>(i)]);
    std::this_thread::sleep_for(std::chrono::microseconds(kModeledCommitUs));
  }

 private:
  [[nodiscard]] std::vector<PrincipalName> members_() const {
    std::vector<PrincipalName> m;
    for (int i = 0; i < num_shards; ++i) m.push_back(shard_name(i));
    return m;
  }
};

/// One worker per shard drives kBatchPerShard Zipfian transfers through
/// its own ShardRouter; `cross_pct` percent pick a payee on another
/// shard.  Returns false on any failed transfer.
void run_sharded_rows(benchmark::State& state, bool durable) {
  const int n = static_cast<int>(state.range(0));
  const int cross_pct = static_cast<int>(state.range(1));
  ShardedBenchWorld w(n, durable);
  // One Zipf per shard: pool sizes differ with real ring placement.
  std::vector<Zipf> zipfs;
  for (int i = 0; i < n; ++i) {
    zipfs.emplace_back(static_cast<int>(w.accounts[i].size()));
  }
  std::vector<std::unique_ptr<ShardRouter>> routers;
  routers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) routers.push_back(w.make_router());

  std::atomic<std::uint64_t> round{0};
  std::atomic<int> failures{0};
  for (auto _ : state) {
    const std::uint64_t r = round.fetch_add(1);
    std::vector<std::thread> workers;
    for (int s = 0; s < n; ++s) {
      workers.emplace_back([&, s] {
        util::Rng rng(r * 8191 + static_cast<std::uint64_t>(s) * 977 + 1);
        for (int k = 0; k < kBatchPerShard; ++k) {
          const bool cross =
              n > 1 && rng.range(0, 99) < cross_pct;
          const std::string& from =
              w.accounts[static_cast<std::size_t>(s)][static_cast<std::size_t>(
                  zipfs[static_cast<std::size_t>(s)].sample(rng))];
          int dst = s;
          if (cross) {
            dst = (s + 1 + static_cast<int>(rng.range(0, n - 2))) % n;
          }
          const auto& pool = w.accounts[static_cast<std::size_t>(dst)];
          std::string to = pool[static_cast<std::size_t>(
              zipfs[static_cast<std::size_t>(dst)].sample(rng))];
          if (!cross && to == from) {
            to = pool[(static_cast<std::size_t>(
                           zipfs[static_cast<std::size_t>(dst)].sample(rng)) +
                       1) %
                      pool.size()];
          }
          if (!routers[static_cast<std::size_t>(s)]
                   ->transfer(from, to, "usd", 1)
                   .is_ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (!durable) {
            // A cross-shard transfer occupies BOTH commit pipes: the
            // deposit journals at the payee's shard, the settlement at
            // the drawee's.
            if (cross) w.modeled_commit(dst);
            w.modeled_commit(s);
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  if (failures.load() > 0) {
    state.SkipWithError("sharded transfers failed");
    return;
  }
  state.SetItemsProcessed(state.iterations() * n * kBatchPerShard);
  state.counters["shards"] = benchmark::Counter(static_cast<double>(n));
  state.counters["accounts"] = benchmark::Counter(static_cast<double>(
      durable ? kDurableTotalAccounts : kModeledTotalAccounts));
  state.counters["cross_pct"] =
      benchmark::Counter(static_cast<double>(cross_pct));
  state.SetLabel(durable
                     ? "durable_fsync_every_record"
                     : "modeled_commit_us=" + std::to_string(kModeledCommitUs));
}

void BM_ShardedTransferScaling(benchmark::State& state) {
  run_sharded_rows(state, /*durable=*/false);
}
// Headline sweep (acceptance: shards:4 >= 3x shards:1 at cross_pct:0)
// plus the cross-shard fraction sweep at shards:4.
BENCHMARK(BM_ShardedTransferScaling)
    ->ArgNames({"shards", "cross_pct"})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({2, 10})
    ->Args({4, 10})
    ->Args({8, 10})
    ->Args({4, 5})
    ->Args({4, 25})
    ->Args({4, 50})
    ->UseRealTime();

void BM_DurableShardedTransfer(benchmark::State& state) {
  run_sharded_rows(state, /*durable=*/true);
}
// Reality check: same workload, real journals, per-record fsync, one
// spindle and one core under everything — scaling flattens, which is
// exactly why the headline rows model the commit pipe instead.
BENCHMARK(BM_DurableShardedTransfer)
    ->ArgNames({"shards", "cross_pct"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Routing-tier per-op cost: what does the ShardRouter itself add?

void BM_RouterTransferCost(benchmark::State& state) {
  const bool cross = state.range(0) == 1;
  ShardedBenchWorld w(2, /*durable=*/false);
  std::unique_ptr<ShardRouter> router = w.make_router();
  const std::string& from = w.accounts[0][0];
  const std::string& to = cross ? w.accounts[1][0] : w.accounts[0][1];
  for (auto _ : state) {
    auto status = router->transfer(from, to, "usd", 1);
    if (!status.is_ok()) {
      state.SkipWithError(status.to_string().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  bench::record_protocol_cost(state, w.world.net, [&] {
    (void)router->transfer(from, to, "usd", 1);
  });
  state.SetLabel(cross ? "cross_shard" : "intra_shard");
}
BENCHMARK(BM_RouterTransferCost)->ArgName("cross")->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// Fan-out client vs per-connection collection (satellite: a slow shard
// must not stall the others; here all four are merely *busy* for 1 ms and
// the per-connection client still pays 4x).

struct BusyNode : net::Node {
  net::Envelope handle(const net::Envelope& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    net::Envelope reply = request;
    reply.type = net::MsgType::kAppReply;
    return reply;
  }
};

/// One server per shard.  BusyNode keeps the default may_block, so each
/// server runs it on its pool; one worker covers the one request per
/// round that a shard sees.
struct FanoutWorld {
  static constexpr int kShards = 4;
  BusyNode node;
  std::vector<std::unique_ptr<net::EventLoopServer>> servers;

  FanoutWorld() {
    for (int i = 0; i < kShards; ++i) {
      servers.push_back(std::make_unique<net::EventLoopServer>(
          net::EventLoopServer::Options{.workers = 1}));
      servers.back()->attach(shard_name(i), node);
      if (!servers.back()->start().is_ok()) std::abort();
    }
  }
};

FanoutWorld& fanout_world() {
  static FanoutWorld* w = new FanoutWorld();
  return *w;
}

net::Envelope gather_request(int shard) {
  net::Envelope e;
  e.from = "router";
  e.to = shard_name(shard);
  e.type = net::MsgType::kAppRequest;
  return e;
}

void BM_FanoutGatherFourShards(benchmark::State& state) {
  FanoutWorld& w = fanout_world();
  net::FanoutClient fanout;
  for (int i = 0; i < FanoutWorld::kShards; ++i) {
    if (!fanout.connect(shard_name(i), "127.0.0.1", w.servers[i]->port())
             .is_ok()) {
      state.SkipWithError("connect failed");
      return;
    }
  }
  for (auto _ : state) {
    for (int i = 0; i < FanoutWorld::kShards; ++i) {
      if (!fanout.send(shard_name(i), gather_request(i)).is_ok()) {
        state.SkipWithError("send failed");
        return;
      }
    }
    for (int i = 0; i < FanoutWorld::kShards; ++i) {
      auto completion = fanout.next(/*timeout_ms=*/5000);
      if (!completion.is_ok()) {
        state.SkipWithError(completion.status().to_string().c_str());
        return;
      }
      benchmark::DoNotOptimize(completion);
    }
  }
  state.SetItemsProcessed(state.iterations() * FanoutWorld::kShards);
}
BENCHMARK(BM_FanoutGatherFourShards)->UseRealTime();

void BM_PerConnectionGatherFourShards(benchmark::State& state) {
  FanoutWorld& w = fanout_world();
  std::vector<std::unique_ptr<net::TcpClient>> clients;
  for (int i = 0; i < FanoutWorld::kShards; ++i) {
    clients.push_back(std::make_unique<net::TcpClient>());
    if (!clients.back()
             ->connect("127.0.0.1", w.servers[i]->port())
             .is_ok()) {
      state.SkipWithError("connect failed");
      return;
    }
  }
  for (auto _ : state) {
    // One connection at a time: each shard's 1 ms handler is paid in
    // sequence — the blocking collection the fan-out client removes.
    for (int i = 0; i < FanoutWorld::kShards; ++i) {
      auto reply = clients[static_cast<std::size_t>(i)]->rpc(
          gather_request(i));
      if (!reply.is_ok()) {
        state.SkipWithError(reply.status().to_string().c_str());
        return;
      }
      benchmark::DoNotOptimize(reply);
    }
  }
  state.SetItemsProcessed(state.iterations() * FanoutWorld::kShards);
}
BENCHMARK(BM_PerConnectionGatherFourShards)->UseRealTime();

}  // namespace
