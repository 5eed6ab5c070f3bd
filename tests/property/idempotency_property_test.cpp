// Property: delivering the SAME kCheckDeposit envelope twice (a network
// duplicate — same challenge, same proof, same bytes) yields byte-identical
// replies and moves money exactly once.  Randomized over seeds so the
// property holds across amounts and check numbers, not one lucky example.
#include <gtest/gtest.h>

#include "core/request.hpp"
#include "testing/env.hpp"
#include "util/rng.hpp"

namespace rproxy {
namespace {

using testing::World;

/// Builds the exact kCheckDeposit envelope AccountingClient would send —
/// fresh challenge, possession proof bound to it — so the test controls
/// redelivery at the byte level.
net::Envelope build_deposit_envelope(World& world,
                                     accounting::AccountingServer& bank,
                                     const PrincipalName& depositor,
                                     const accounting::Check& endorsed,
                                     const std::string& collect_account) {
  auto challenge = net::call<core::ChallengeRegistry::Challenge>(
      world.net, depositor, bank.name(),
      net::MsgType::kPresentChallengeRequest,
      net::MsgType::kPresentChallengeReply, core::ChallengeRequest{});
  EXPECT_TRUE(challenge.is_ok()) << challenge.status();

  accounting::DepositPayload req;
  req.challenge_id = challenge.value().id;
  req.check = endorsed;
  req.collect_account = collect_account;
  req.amount = endorsed.amount;
  req.identity = core::prove_delegate_pk(
      world.principal(depositor).cert, world.principal(depositor).identity,
      challenge.value().nonce, bank.name(), world.clock.now(),
      core::request_digest("deposit", collect_account,
                           {{endorsed.currency, endorsed.amount}}));

  net::Envelope env;
  env.from = depositor;
  env.to = bank.name();
  env.type = net::MsgType::kCheckDeposit;
  env.payload = wire::encode_to_bytes(req);
  return env;
}

TEST(IdempotencyProperty, VerbatimDuplicateDepositsReplayByteIdentically) {
  World world;
  world.add_principal("client");
  world.add_principal("merchant");
  world.add_principal("bank");
  accounting::AccountingServer bank(world.accounting_config("bank"));
  world.net.attach("bank", bank);
  bank.open_account("client-acct", "client",
                    accounting::Balances{{"usd", 100000}});
  bank.open_account("merchant-acct", "merchant");

  util::Rng rng(20260806);
  std::int64_t expected_merchant = 0;
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("check " + std::to_string(i + 1));
    const auto amount = static_cast<std::uint64_t>(rng.range(1, 500));
    const accounting::Check check = accounting::write_check(
        "client", world.principal("client").identity,
        AccountId{"bank", "client-acct"}, "merchant", "usd", amount,
        /*check_number=*/static_cast<std::uint64_t>(i + 1),
        world.clock.now(), util::kHour);
    auto endorsed =
        accounting::endorse_check(check, "merchant",
                                  world.principal("merchant").identity,
                                  "bank", world.clock.now());
    ASSERT_TRUE(endorsed.is_ok()) << endorsed.status();

    const net::Envelope env = build_deposit_envelope(
        world, bank, "merchant", endorsed.value(), "merchant-acct");

    const net::Envelope first = bank.handle(env);
    ASSERT_EQ(first.type, net::MsgType::kDepositReply)
        << net::status_of(first);
    expected_merchant += static_cast<std::int64_t>(amount);
    EXPECT_EQ(bank.account("merchant-acct")->balances().balance("usd"),
              expected_merchant);

    // Redeliver the identical bytes a random 1..3 more times.
    const auto dups = static_cast<std::uint64_t>(rng.range(1, 3));
    for (std::uint64_t d = 0; d < dups; ++d) {
      const net::Envelope again = bank.handle(env);
      EXPECT_EQ(again.type, first.type);
      EXPECT_EQ(again.payload, first.payload);  // byte-identical replay
    }
    // No double credit, no double debit.
    EXPECT_EQ(bank.account("merchant-acct")->balances().balance("usd"),
              expected_merchant);
    EXPECT_EQ(bank.account("client-acct")->balances().balance("usd"),
              100000 - expected_merchant);
  }
  EXPECT_EQ(bank.checks_cleared(), 12u);
  EXPECT_GE(bank.deduped_replies(), 12u);
}

TEST(IdempotencyProperty, RetriedCertifyReplaysWithoutDoubleHold) {
  World world;
  world.add_principal("client");
  world.add_principal("bank");
  accounting::AccountingServer bank(world.accounting_config("bank"));
  world.net.attach("bank", bank);
  bank.open_account("client-acct", "client",
                    accounting::Balances{{"usd", 100}});

  // A retried certify uses a FRESH challenge (single-use), so idempotency
  // must come from the server's certify dedup table, keyed on the
  // authenticated payor + check number.
  auto client = world.accounting_client("client");
  auto first = client.certify("bank", "client-acct", "merchant", "usd", 40,
                              /*check_number=*/7, "shop");
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto second = client.certify("bank", "client-acct", "merchant", "usd", 40,
                               /*check_number=*/7, "shop");
  ASSERT_TRUE(second.is_ok()) << second.status();

  EXPECT_EQ(wire::encode_to_bytes(first.value()),
            wire::encode_to_bytes(second.value()));
  EXPECT_EQ(bank.deduped_replies(), 1u);
  // The hold was placed once: 100 - 40 leaves 60 spendable.
  auto query = client.query("bank", "client-acct");
  ASSERT_TRUE(query.is_ok()) << query.status();
  EXPECT_EQ(query.value().held.balance("usd"), 40);
  EXPECT_EQ(query.value().balances.balance("usd"), 100);
}

TEST(IdempotencyProperty, DedupDisabledRejectsDuplicateAsReplay) {
  // Control: with dedup off, the second delivery must NOT clear again —
  // the accept-once check number still protects the money — but the
  // caller gets an error instead of its answer.
  World world;
  world.add_principal("client");
  world.add_principal("merchant");
  world.add_principal("bank");
  auto config = world.accounting_config("bank");
  config.enable_dedup = false;
  accounting::AccountingServer bank(std::move(config));
  world.net.attach("bank", bank);
  bank.open_account("client-acct", "client",
                    accounting::Balances{{"usd", 100}});
  bank.open_account("merchant-acct", "merchant");

  const accounting::Check check = accounting::write_check(
      "client", world.principal("client").identity,
      AccountId{"bank", "client-acct"}, "merchant", "usd", 25, 1,
      world.clock.now(), util::kHour);
  auto endorsed = accounting::endorse_check(
      check, "merchant", world.principal("merchant").identity, "bank",
      world.clock.now());
  ASSERT_TRUE(endorsed.is_ok()) << endorsed.status();

  const net::Envelope env = build_deposit_envelope(
      world, bank, "merchant", endorsed.value(), "merchant-acct");
  EXPECT_EQ(bank.handle(env).type, net::MsgType::kDepositReply);
  EXPECT_EQ(bank.handle(env).type, net::MsgType::kError);
  EXPECT_EQ(bank.account("merchant-acct")->balances().balance("usd"), 25);
  EXPECT_EQ(bank.deduped_replies(), 0u);
}

}  // namespace
}  // namespace rproxy
