// T7 — the verified-credential fast path.
//
// A client that obtained a proxy once presents the same chain on every
// subsequent request, so the end-server re-verifies byte-identical
// certificates thousands of times (§3.1's check-once/reuse-many pattern).
// These benches measure what the ChainVerifyCache buys:
//   * BM_ChainVerify       — verify_chain() cold (cache off) vs warm
//                            (cache hit) across chain depths 1/4/8;
//   * BM_VerifyCacheSpeedup— one-shot A/B at depth 4 reporting cold_us,
//                            warm_us and their ratio as counters;
//   * BM_AppRequestThroughput — full end-server request processing
//                            (timestamp-mode presentation, possession
//                            proof, ACL, restrictions, audit) with the
//                            cache off vs on;
//   * BM_ZipfChainMix      — e2ebench's authz chain mix scaled 1:4 through
//                            256 slots: Ed25519 verifies per op and the
//                            hit ratio that the eviction order leaves.
#include <algorithm>
#include <chrono>

#include "authz/capability.hpp"
#include "bench_util.hpp"
#include "core/presentation.hpp"
#include "net/rpc.hpp"
#include "server/file_server.hpp"
#include "util/rng.hpp"

namespace {

using namespace rproxy;
using rproxy::bench::expect_ok;

core::RestrictionSet one_quota(std::int64_t i) {
  core::RestrictionSet set;
  set.add(core::QuotaRestriction{"usd", static_cast<uint64_t>(1000 - i)});
  return set;
}

/// Depth-`depth` pk bearer cascade rooted at alice.
core::Proxy make_chain(testing::World& world, std::int64_t depth) {
  core::Proxy proxy =
      core::grant_pk_proxy("alice", world.principal("alice").identity,
                           one_quota(0), world.clock.now(), util::kHour);
  for (std::int64_t i = 1; i < depth; ++i) {
    proxy = core::extend_bearer(proxy, one_quota(i), world.clock.now(),
                                util::kHour)
                .value();
  }
  return proxy;
}

core::ProxyVerifier make_verifier(testing::World& world,
                                  std::size_t cache_capacity) {
  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.server_key = world.principal("file-server").krb_key;
  vc.resolver = &world.resolver;
  vc.pk_root = world.name_server.root_key();
  vc.verify_cache_capacity = cache_capacity;
  return core::ProxyVerifier(std::move(vc));
}

/// verify_chain() vs chain depth, cache off (warm=0) or hitting (warm=1).
void BM_ChainVerify(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  const bool warm = state.range(1) != 0;
  testing::World world;
  world.add_principal("alice");
  world.add_principal("file-server");
  const core::Proxy proxy = make_chain(world, depth);
  const core::ProxyVerifier verifier = make_verifier(world, warm ? 1024 : 0);

  for (auto _ : state) {
    auto verified = verifier.verify_chain(proxy.chain, world.clock.now());
    benchmark::DoNotOptimize(verified);
    if (!verified.is_ok()) state.SkipWithError("verify failed");
  }
  const core::ChainCacheStats stats = verifier.cache_stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
  state.counters["cache_misses"] =
      benchmark::Counter(static_cast<double>(stats.misses));
}
BENCHMARK(BM_ChainVerify)
    ->ArgsProduct({{1, 4, 8}, {0, 1}})
    ->ArgNames({"depth", "warm"});

/// One-shot cold/warm A/B at depth 4.  The acceptance number: `speedup`
/// must come out >= 3.
void BM_VerifyCacheSpeedup(benchmark::State& state) {
  constexpr std::int64_t kDepth = 4;
  constexpr int kReps = 2000;
  testing::World world;
  world.add_principal("alice");
  world.add_principal("file-server");
  const core::Proxy proxy = make_chain(world, kDepth);
  const core::ProxyVerifier cold = make_verifier(world, 0);
  const core::ProxyVerifier hot = make_verifier(world, 1024);

  using clock = std::chrono::steady_clock;
  double cold_us = 0;
  double warm_us = 0;
  for (auto _ : state) {
    const auto t0 = clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto v = cold.verify_chain(proxy.chain, world.clock.now());
      benchmark::DoNotOptimize(v);
      if (!v.is_ok()) state.SkipWithError("cold verify failed");
    }
    const auto t1 = clock::now();
    for (int i = 0; i < kReps; ++i) {
      auto v = hot.verify_chain(proxy.chain, world.clock.now());
      benchmark::DoNotOptimize(v);
      if (!v.is_ok()) state.SkipWithError("warm verify failed");
    }
    const auto t2 = clock::now();
    const auto us = [](clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count() / kReps;
    };
    cold_us = us(t1 - t0);
    warm_us = us(t2 - t1);
  }
  state.counters["cold_us"] = benchmark::Counter(cold_us);
  state.counters["warm_us"] = benchmark::Counter(warm_us);
  state.counters["speedup"] =
      benchmark::Counter(warm_us > 0 ? cold_us / warm_us : 0);
}
BENCHMARK(BM_VerifyCacheSpeedup)->Iterations(1);

/// Whole end-server request path (timestamp-mode presentation of a depth-4
/// capability chain), cache off (0) vs on (1).
void BM_AppRequestThroughput(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  testing::World world;
  world.add_principal("alice");
  world.add_principal("file-server");

  server::EndServer::Config config = world.end_server_config("file-server");
  config.verify_cache_capacity = cached ? 1024 : 0;
  server::FileServer file_server(std::move(config));
  file_server.put_file("file.txt", "contents");
  file_server.acl().add(authz::AclEntry{.principals = {"alice"},
                                        .operations = {"read"},
                                        .objects = {"*"},
                                        .restrictions = {}});

  core::Proxy proxy = authz::make_capability_pk(
      "alice", world.principal("alice").identity, "file-server",
      {core::ObjectRights{"file.txt", {"read"}}}, world.clock.now(),
      util::kHour);
  for (int i = 0; i < 3; ++i) {
    proxy = core::extend_bearer(proxy, {}, world.clock.now(), util::kHour)
                .value();
  }

  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "file.txt";
  const util::Bytes rdigest = req.digest();

  for (auto _ : state) {
    // Fresh possession proof per request (a real client re-proves every
    // time; the random proof nonce keeps the replay cache happy).
    req.credentials.clear();
    req.credentials.push_back(core::PresentedCredential{
        proxy.chain, core::prove_bearer(proxy, {}, "file-server",
                                        world.clock.now(), rdigest)});
    net::Envelope env;
    env.from = "alice";
    env.to = "file-server";
    env.type = net::MsgType::kAppRequest;
    env.payload = wire::encode_to_bytes(req);
    net::Envelope reply = file_server.handle(env);
    benchmark::DoNotOptimize(reply);
    if (!net::expect_type(reply, net::MsgType::kAppReply).is_ok()) {
      state.SkipWithError("app request denied");
    }
  }
  state.SetItemsProcessed(state.iterations());
  const core::ChainCacheStats stats = file_server.verifier().cache_stats();
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(stats.hits));
}
BENCHMARK(BM_AppRequestThroughput)->Arg(0)->Arg(1)->ArgName("cached");

/// e2ebench's authz plan scaled 1:4: 1024 chains in Zipf(1) rank order,
/// every fifth one public-key, depths 1-4 cycling with the rank, verified
/// through 256 cache slots.  A fixed-seed warm-up pass fills the cache
/// first, so the timed pass reads the steady state, and both passes draw
/// the same sequence on every build.  `ed25519_verifies_per_op` counts
/// chain misses only; the per-request possession proofs are not here.
void BM_ZipfChainMix(benchmark::State& state) {
  constexpr std::uint32_t kChains = 1024;
  constexpr std::size_t kSlots = 256;
  constexpr int kWarmup = 20000;
  testing::World world;
  world.net.set_default_latency(0);
  world.add_principal("alice");
  world.add_principal("file-server");
  kdc::KdcClient client = world.kdc_client("alice");
  auto tgt = client.authenticate(8 * util::kHour);
  auto creds = expect_ok(
      state, client.get_ticket(tgt.value(), "file-server", 8 * util::kHour),
      "get_ticket");

  std::vector<core::Proxy> chains;
  chains.reserve(kChains);
  for (std::uint32_t c = 0; c < kChains; ++c) {
    core::Proxy proxy =
        c % 5 == 2
            ? core::grant_pk_proxy("alice", world.principal("alice").identity,
                                   {}, world.clock.now(), util::kHour)
            : core::grant_krb_proxy(client, creds, {}, world.clock.now());
    for (std::uint32_t hop = 1; hop < 1 + c % 4; ++hop) {
      proxy = core::extend_bearer(proxy, {}, world.clock.now(), util::kHour)
                  .value();
    }
    chains.push_back(std::move(proxy));
  }

  std::vector<double> cdf;
  double total = 0;
  for (std::uint32_t r = 1; r <= kChains; ++r) {
    total += 1.0 / static_cast<double>(r);
    cdf.push_back(total);
  }
  for (double& c : cdf) c /= total;
  util::Rng rng(7);
  const auto next_chain = [&]() -> const core::ProxyChain& {
    const auto rank = std::lower_bound(cdf.begin(), cdf.end(),
                                       rng.next_double()) -
                      cdf.begin();
    return chains[std::min<std::size_t>(static_cast<std::size_t>(rank),
                                        kChains - 1)]
        .chain;
  };

  const core::ProxyVerifier verifier = make_verifier(world, kSlots);
  for (int i = 0; i < kWarmup; ++i) {
    if (!verifier.verify_chain(next_chain(), world.clock.now()).is_ok()) {
      state.SkipWithError("warm-up verify failed");
      return;
    }
  }

  const core::ChainCacheStats cache_before = verifier.cache_stats();
  const crypto::KeyCacheStats keys_before = crypto::key_cache_stats();
  for (auto _ : state) {
    auto verified = verifier.verify_chain(next_chain(), world.clock.now());
    benchmark::DoNotOptimize(verified);
    if (!verified.is_ok()) state.SkipWithError("verify failed");
  }
  const core::ChainCacheStats cache = verifier.cache_stats();
  const crypto::KeyCacheStats keys = crypto::key_cache_stats();
  const auto ops = static_cast<double>(state.iterations());
  const auto verifies = static_cast<double>(
      keys.verify_hits + keys.verify_misses - keys_before.verify_hits -
      keys_before.verify_misses);
  const auto hits = static_cast<double>(cache.hits - cache_before.hits);
  const auto misses = static_cast<double>(cache.misses - cache_before.misses);
  state.SetItemsProcessed(state.iterations());
  state.counters["ed25519_verifies_per_op"] =
      benchmark::Counter(ops > 0 ? verifies / ops : 0);
  state.counters["hit_ratio"] =
      benchmark::Counter(hits + misses > 0 ? hits / (hits + misses) : 0);
}
BENCHMARK(BM_ZipfChainMix)->Iterations(20000);

}  // namespace
