// Fig 5 — processing a check: check -> E1 (endorse+deposit) -> E2
// (endorse+forward) -> settlement at the drawee.
//
// Regenerates the message flow and sweeps the number of accounting-server
// hops between the payee's server and the drawee (1 = Fig 5's exact
// scenario, 0 = same server).  Expected shape: clearing cost (messages and
// latency) grows linearly with hops; duplicate check numbers are answered
// idempotently from the dedup table; certified checks add one round trip
// up front.
#include "bench_util.hpp"

namespace {

using namespace rproxy;

struct ClearingWorld {
  // `hops` intermediate servers between payee bank and drawee bank.
  ClearingWorld(benchmark::State& state, std::int64_t hops) {
    world.add_principal("client");
    world.add_principal("merchant");
    world.net.set_default_latency(0);

    // banks[0] = payee's bank; banks[hops] = drawee.
    for (std::int64_t i = 0; i <= hops; ++i) {
      const PrincipalName name = "bank" + std::to_string(i);
      world.add_principal(name);
      banks.push_back(std::make_unique<accounting::AccountingServer>(
          world.accounting_config(name)));
      world.net.attach(name, *banks.back());
    }
    // Route the clearing through the chain: bank_i collects from the
    // drawee via bank_{i+1}.
    const PrincipalName drawee = "bank" + std::to_string(hops);
    for (std::int64_t i = 0; i + 1 < hops; ++i) {
      if (!banks[static_cast<std::size_t>(i)]
               ->set_route(drawee, "bank" + std::to_string(i + 1))
               .is_ok()) {
        state.SkipWithError("set_route failed");
      }
    }
    banks.front()->open_account("merchant-acct", "merchant");
    banks.back()->open_account("client-acct", "client",
                               accounting::Balances{{"usd", 1LL << 40}});
    drawee_name = drawee;
    if (banks.empty()) state.SkipWithError("setup failed");
  }

  testing::World world;
  std::vector<std::unique_ptr<accounting::AccountingServer>> banks;
  PrincipalName drawee_name;
  std::uint64_t next_ckno = 1;
};

/// Write + endorse + clear one check across `hops` accounting servers.
void BM_CheckClearing_Hops(benchmark::State& state) {
  ClearingWorld w(state, state.range(0));
  auto merchant = w.world.accounting_client("merchant");

  const auto clear_one = [&] {
    const accounting::Check check = accounting::write_check(
        "client", w.world.principal("client").identity,
        AccountId{w.drawee_name, "client-acct"}, "merchant", "usd", 1,
        w.next_ckno++, w.world.clock.now(), 100 * util::kHour);
    return merchant.endorse_and_deposit("bank0", check, "merchant-acct");
  };

  rproxy::bench::record_protocol_cost(state, w.world.net,
                                      [&] { (void)clear_one(); });
  for (auto _ : state) {
    auto cleared = clear_one();
    benchmark::DoNotOptimize(cleared);
    if (!cleared.is_ok()) {
      state.SkipWithError(cleared.status().to_string().c_str());
    }
  }
  state.counters["hops"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_CheckClearing_Hops)->DenseRange(0, 4)->Arg(8);

/// The certified-check variant at one hop (Fig 5 scenario): certify (hold)
/// + write + verify certification + clear from the hold.
void BM_CertifiedCheck(benchmark::State& state) {
  ClearingWorld w(state, 1);
  auto merchant = w.world.accounting_client("merchant");
  auto payer = w.world.accounting_client("client");

  core::ProxyVerifier::Config vc;
  vc.server_name = "merchant";
  vc.resolver = &w.world.resolver;
  vc.pk_root = w.world.name_server.root_key();
  const core::ProxyVerifier merchant_verifier(std::move(vc));

  const auto cycle = [&]() -> util::Status {
    const std::uint64_t ckno = w.next_ckno++;
    auto certification =
        payer.certify(w.drawee_name, "client-acct", "merchant", "usd", 1,
                      ckno, "merchant",
                      w.world.clock.now() + 100 * util::kHour);
    RPROXY_RETURN_IF_ERROR(certification.status());
    const accounting::Check check = accounting::write_check(
        "client", w.world.principal("client").identity,
        AccountId{w.drawee_name, "client-acct"}, "merchant", "usd", 1, ckno,
        w.world.clock.now(), 100 * util::kHour);
    RPROXY_RETURN_IF_ERROR(accounting::verify_certification(
        merchant_verifier, certification.value().certification, check,
        w.drawee_name, "client", w.world.clock.now()));
    return merchant.endorse_and_deposit("bank0", check, "merchant-acct")
        .status();
  };

  rproxy::bench::record_protocol_cost(state, w.world.net,
                                      [&] { (void)cycle(); });
  for (auto _ : state) {
    util::Status st = cycle();
    if (!st.is_ok()) state.SkipWithError(st.to_string().c_str());
  }
}
BENCHMARK(BM_CertifiedCheck);

/// Duplicate handling cost: the exactly-once dedup lookup at the payee's
/// bank replays the original reply without touching any balance.
void BM_DuplicateCheckReplayed(benchmark::State& state) {
  ClearingWorld w(state, 1);
  auto merchant = w.world.accounting_client("merchant");
  const accounting::Check check = accounting::write_check(
      "client", w.world.principal("client").identity,
      AccountId{w.drawee_name, "client-acct"}, "merchant", "usd", 1,
      w.next_ckno++, w.world.clock.now(), 100 * util::kHour);
  // First deposit succeeds and primes the dedup table.
  auto first = merchant.endorse_and_deposit("bank0", check, "merchant-acct");
  if (!first.is_ok()) {
    state.SkipWithError("priming deposit failed");
    return;
  }
  for (auto _ : state) {
    auto again =
        merchant.endorse_and_deposit("bank0", check, "merchant-acct");
    benchmark::DoNotOptimize(again);
    if (!again.is_ok()) state.SkipWithError("duplicate was not replayed!");
  }
  // No duplicate may have moved money.
  if (w.banks.front()->account("merchant-acct")->balances().balance("usd") !=
      1) {
    state.SkipWithError("duplicate deposit was double-credited!");
  }
}
BENCHMARK(BM_DuplicateCheckReplayed);

/// Writing a check is offline — no messages at all.
void BM_WriteCheck(benchmark::State& state) {
  testing::World world;
  world.add_principal("client");
  std::uint64_t ckno = 1;
  for (auto _ : state) {
    accounting::Check check = accounting::write_check(
        "client", world.principal("client").identity,
        AccountId{"bank", "client-acct"}, "merchant", "usd", 1, ckno++,
        world.clock.now(), util::kHour);
    benchmark::DoNotOptimize(check);
  }
  state.counters["msgs"] = benchmark::Counter(0);
}
BENCHMARK(BM_WriteCheck);

}  // namespace
