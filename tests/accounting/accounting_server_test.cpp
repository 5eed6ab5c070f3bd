// Accounting server protocol tests (§4, Fig 5): queries, transfers,
// same-server clearing, cross-server clearing, certified checks,
// double-spend rejection, bounced checks.
#include "accounting/accounting_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "crypto/aead.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using accounting::Check;
using testing::World;

class AccountingServerTest : public ::testing::Test {
 protected:
  AccountingServerTest() {
    world_.add_principal("client");
    world_.add_principal("app-server");
    world_.add_principal("bank1");
    world_.add_principal("bank2");

    bank1_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank1"));
    bank2_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank2"));
    world_.net.attach("bank1", *bank1_);
    world_.net.attach("bank2", *bank2_);

    bank2_->open_account("client-account", "client",
                         accounting::Balances{{"usd", 100}});
    bank1_->open_account("server-account", "app-server");
  }

  Check write_check(std::uint64_t amount, std::uint64_t number) {
    return accounting::write_check(
        "client", world_.principal("client").identity,
        AccountId{"bank2", "client-account"}, "app-server", "usd", amount,
        number, world_.clock.now(), util::kHour);
  }

  World world_;
  std::unique_ptr<accounting::AccountingServer> bank1_;
  std::unique_ptr<accounting::AccountingServer> bank2_;
};

TEST_F(AccountingServerTest, OwnerQueriesBalance) {
  auto client = world_.accounting_client("client");
  auto reply = client.query("bank2", "client-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().balances.balance("usd"), 100);
}

TEST_F(AccountingServerTest, StrangerCannotQuery) {
  auto stranger = world_.accounting_client("app-server");
  EXPECT_EQ(stranger.query("bank2", "client-account").code(),
            util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, UnknownAccountQueryFails) {
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client.query("bank2", "ghost").code(),
            util::ErrorCode::kNotFound);
}

TEST_F(AccountingServerTest, LocalTransfer) {
  bank2_->open_account("savings", "client");
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(
      client.transfer("bank2", "client-account", "savings", "usd", 30)
          .is_ok());
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            70);
  EXPECT_EQ(bank2_->account("savings")->balances().balance("usd"), 30);
}

TEST_F(AccountingServerTest, TransferRequiresDebitRight) {
  bank2_->open_account("other", "someone-else");
  auto client = world_.accounting_client("client");
  EXPECT_EQ(
      client.transfer("bank2", "other", "client-account", "usd", 1).code(),
      util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, TransferInsufficientFunds) {
  bank2_->open_account("savings", "client");
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client.transfer("bank2", "client-account", "savings", "usd", 101)
                .code(),
            util::ErrorCode::kInsufficientFunds);
}

TEST_F(AccountingServerTest, TransferBeyondTheBooksIsRefused) {
  // Wire amounts are u64 and the books int64: 2^64 - 30 must not wrap
  // into a negative debit that pulls 30 out of the payee's account.
  bank2_->open_account("victim", "someone-else",
                       accounting::Balances{{"usd", 50}});
  auto client = world_.accounting_client("client");
  EXPECT_FALSE(client
                   .transfer("bank2", "client-account", "victim", "usd",
                             std::numeric_limits<std::uint64_t>::max() - 29)
                   .is_ok());
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            100);
  EXPECT_EQ(bank2_->account("victim")->balances().balance("usd"), 50);
}

TEST_F(AccountingServerTest, SameServerCheckClears) {
  // Payee also banks at bank2: single-server settlement, zero hops.
  bank2_->open_account("server-account", "app-server");
  const Check check = write_check(50, 1);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank2", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_TRUE(reply.value().cleared);
  EXPECT_EQ(reply.value().hops, 0u);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            50);
  EXPECT_EQ(bank2_->account("server-account")->balances().balance("usd"),
            50);
}

TEST_F(AccountingServerTest, CrossServerCheckClears) {
  // Fig 5 exactly: C banks at $2, S banks at $1, clearing crosses once.
  const Check check = write_check(50, 2);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_TRUE(reply.value().cleared);
  EXPECT_EQ(reply.value().hops, 1u);

  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            50);
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            50);
  // bank1's settlement account at bank2 received the funds.
  ASSERT_NE(bank2_->account("peer:bank1"), nullptr);
  EXPECT_EQ(bank2_->account("peer:bank1")->balances().balance("usd"), 50);
  EXPECT_EQ(bank1_->uncollected_total(), 0);
}

TEST_F(AccountingServerTest, DuplicateCheckNumberRepliesIdempotently) {
  // §4: "If, within that period, another check with the same number is
  // seen, it is rejected."  With exactly-once clearing the rejection is
  // invisible to the payee — the dedup table replays the original reply —
  // but the money still moves exactly once.
  const Check check = write_check(10, 3);
  auto payee = world_.accounting_client("app-server");
  ASSERT_TRUE(
      payee.endorse_and_deposit("bank1", check, "server-account").is_ok());
  auto again = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(again.is_ok()) << again.status();
  EXPECT_TRUE(again.value().cleared);
  EXPECT_EQ(bank1_->deduped_replies(), 1u);
  // The replayed duplicate did not double-credit.
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            10);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            90);
}

TEST_F(AccountingServerTest, DuplicateCheckNumberRejectedWithoutDedup) {
  // The paper's own accept-once rejection is still underneath: disable the
  // dedup layer and the duplicate bounces as a replay.  Same-server settle
  // so no dedup-enabled peer can mask the rejection.
  auto config = world_.accounting_config("bank2");
  config.enable_dedup = false;
  accounting::AccountingServer plain_bank(std::move(config));
  world_.net.attach("bank2", plain_bank);
  plain_bank.open_account("client-account", "client",
                          accounting::Balances{{"usd", 100}});
  plain_bank.open_account("server-account", "app-server");

  const Check check = write_check(10, 3);
  auto payee = world_.accounting_client("app-server");
  ASSERT_TRUE(
      payee.endorse_and_deposit("bank2", check, "server-account").is_ok());
  auto again = payee.endorse_and_deposit("bank2", check, "server-account");
  EXPECT_EQ(again.code(), util::ErrorCode::kReplay);
  EXPECT_EQ(plain_bank.account("server-account")->balances().balance("usd"),
            10);
  EXPECT_EQ(plain_bank.account("client-account")->balances().balance("usd"),
            90);
  EXPECT_EQ(plain_bank.deduped_replies(), 0u);
}

/// Parks the thread that arrives until the test opens it; the test waits
/// for the arrival first, so an interleaving is forced, not timed.
class Gate {
 public:
  void arrive_and_wait() {
    std::unique_lock lock(mutex_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void wait_arrived() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return arrived_; });
  }
  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool open_ = false;
};

/// The drawee, with the first check deposit it receives held at `gate`.
class HoldingDrawee final : public net::Node {
 public:
  HoldingDrawee(net::Node& drawee, Gate& gate) : drawee_(drawee), gate_(gate) {}
  net::Envelope handle(const net::Envelope& request) override {
    if (request.type == net::MsgType::kCheckDeposit && !held_.exchange(true)) {
      gate_.arrive_and_wait();
    }
    return drawee_.handle(request);
  }

 private:
  net::Node& drawee_;
  Gate& gate_;
  std::atomic<bool> held_{false};
};

/// Owns every account, but parks the second shard-gate lookup of
/// `account` at `gate`.
class ParkSecondLookup final : public accounting::sharding::ShardView {
 public:
  ParkSecondLookup(std::string account, Gate& gate)
      : account_(std::move(account)), gate_(gate) {}
  bool owns(const PrincipalName& /*shard*/, std::string_view account,
            std::uint64_t* /*version*/) const override {
    if (account == account_ && lookups_.fetch_add(1) == 1) {
      gate_.arrive_and_wait();
    }
    return true;
  }

 private:
  std::string account_;
  Gate& gate_;
  mutable std::atomic<int> lookups_{0};
};

TEST(ExactlyOnceClearing, RetryRacingItsOriginalCollectionCreditsOnce) {
  // A retried deposit misses the collecting bank's dedup table while its
  // original is still collecting from the drawee, and reaches collection
  // only after the original has settled.  The drawee replays "cleared"
  // for the second collection, so the collector itself must notice.
  World world;
  for (const char* name : {"client", "app-server", "bank1", "bank2"}) {
    world.add_principal(name);
  }
  Gate drawee_gate;
  Gate shard_gate;
  ParkSecondLookup view("server-account", shard_gate);
  auto config = world.accounting_config("bank1");
  config.shard = &view;
  accounting::AccountingServer bank1(std::move(config));
  accounting::AccountingServer bank2(world.accounting_config("bank2"));
  HoldingDrawee drawee(bank2, drawee_gate);
  world.net.attach("bank2", drawee);
  bank2.open_account("client-account", "client",
                     accounting::Balances{{"usd", 100}});
  bank1.open_account("server-account", "app-server");
  const Check check = accounting::write_check(
      "client", world.principal("client").identity,
      AccountId{"bank2", "client-account"}, "app-server", "usd", 50, 7,
      world.clock.now(), util::kHour);

  // Both deposits enter bank1 directly, each with a fresh challenge and
  // proof, on threads of their own; the gates force the overlap.
  auto payee = world.accounting_client("app-server");
  using Reply = util::Result<accounting::DepositReplyPayload>;
  const auto deposit = [&]() -> Reply {
    RPROXY_ASSIGN_OR_RETURN(
        const auto challenge,
        accounting::AccountingClient::read_challenge_reply(
            bank1.handle(payee.challenge_request("bank1"))));
    RPROXY_ASSIGN_OR_RETURN(
        const net::Envelope request,
        payee.deposit_request("bank1", check, "server-account", challenge));
    return accounting::AccountingClient::read_deposit_reply(
        bank1.handle(request));
  };
  std::optional<Reply> original;
  std::optional<Reply> retry;
  std::thread first([&] { original = deposit(); });
  drawee_gate.wait_arrived();  // the original is collecting
  std::thread second([&] { retry = deposit(); });
  shard_gate.wait_arrived();  // the retry missed the dedup table
  drawee_gate.open();
  first.join();  // the original settled
  shard_gate.open();
  second.join();

  ASSERT_TRUE(original->is_ok()) << original->status();
  ASSERT_TRUE(retry->is_ok()) << retry->status();
  EXPECT_TRUE(original->value().cleared);
  EXPECT_TRUE(retry->value().cleared);
  EXPECT_EQ(bank2.account("client-account")->balances().balance("usd"), 50);
  EXPECT_EQ(bank1.account("server-account")->balances().balance("usd"), 50);
  EXPECT_EQ(bank1.uncollected_total(), 0);
}

TEST_F(AccountingServerTest, InsufficientFundsCheckBounces) {
  const Check check = write_check(500, 4);  // account holds only 100
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  EXPECT_EQ(reply.code(), util::ErrorCode::kInsufficientFunds);
  // The provisional uncollected credit was reverted.
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"), 0);
  EXPECT_EQ(bank1_->uncollected_total(), 0);
  EXPECT_EQ(bank1_->checks_bounced(), 1u);
}

TEST_F(AccountingServerTest, PartialDraw) {
  // "the payee transfers up to that limit" — draw 30 of a 50 check.
  const Check check = write_check(50, 5);
  auto payee = world_.accounting_client("app-server");
  auto endorsed = accounting::endorse_check(
      check, "app-server", world_.principal("app-server").identity, "bank1",
      world_.clock.now());
  ASSERT_TRUE(endorsed.is_ok());
  auto reply =
      payee.deposit("bank1", endorsed.value(), "server-account", 30);
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            70);
}

TEST_F(AccountingServerTest, DrawBeyondLimitRejected) {
  const Check check = write_check(50, 6);
  auto payee = world_.accounting_client("app-server");
  auto endorsed = accounting::endorse_check(
      check, "app-server", world_.principal("app-server").identity, "bank1",
      world_.clock.now());
  ASSERT_TRUE(endorsed.is_ok());
  EXPECT_EQ(
      payee.deposit("bank1", endorsed.value(), "server-account", 60).code(),
      util::ErrorCode::kRestrictionViolated);
}

TEST_F(AccountingServerTest, ExpiredCheckRejected) {
  const Check check = write_check(10, 7);
  world_.clock.advance(2 * util::kHour);
  auto payee = world_.accounting_client("app-server");
  // Re-issue the payee's identity cert (the old one also expired? no — 8h
  // lifetime; only the check's 1h lifetime passed).
  EXPECT_EQ(
      payee.endorse_and_deposit("bank1", check, "server-account").code(),
      util::ErrorCode::kExpired);
}

TEST_F(AccountingServerTest, MisdrawnCheckRejected) {
  // Mallory writes a check on client's account.
  world_.add_principal("mallory");
  const Check forged = accounting::write_check(
      "mallory", world_.principal("mallory").identity,
      AccountId{"bank2", "client-account"}, "app-server", "usd", 10, 8,
      world_.clock.now(), util::kHour);
  auto payee = world_.accounting_client("app-server");
  EXPECT_EQ(
      payee.endorse_and_deposit("bank1", forged, "server-account").code(),
      util::ErrorCode::kPermissionDenied);
}

TEST_F(AccountingServerTest, MultiHopClearingViaRoute) {
  // Three banks: payee at bank1, drawee bank3, routed via bank2.
  world_.add_principal("bank3");
  auto bank3 = std::make_unique<accounting::AccountingServer>(
      world_.accounting_config("bank3"));
  world_.net.attach("bank3", *bank3);
  bank3->open_account("client3", "client",
                      accounting::Balances{{"usd", 100}});
  bank1_->set_route("bank3", "bank2");

  const Check check = accounting::write_check(
      "client", world_.principal("client").identity,
      AccountId{"bank3", "client3"}, "app-server", "usd", 25, 9,
      world_.clock.now(), util::kHour);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  EXPECT_EQ(reply.value().hops, 2u);
  EXPECT_EQ(bank3->account("client3")->balances().balance("usd"), 75);
  EXPECT_EQ(bank1_->account("server-account")->balances().balance("usd"),
            25);
}

class CertifiedCheckTest : public AccountingServerTest {};

TEST_F(CertifiedCheckTest, CertificationPlacesHold) {
  auto client = world_.accounting_client("client");
  auto cert = client.certify("bank2", "client-account", "app-server", "usd",
                             40, 100, "app-server");
  ASSERT_TRUE(cert.is_ok()) << cert.status();
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 40);
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);
}

TEST_F(CertifiedCheckTest, CertificationVerifiableByEndServer) {
  auto client = world_.accounting_client("client");
  auto cert = client.certify("bank2", "client-account", "app-server", "usd",
                             40, 101, "app-server");
  ASSERT_TRUE(cert.is_ok());

  const Check check = write_check(40, 101);
  core::ProxyVerifier::Config vc;
  vc.server_name = "app-server";
  vc.resolver = &world_.resolver;
  vc.pk_root = world_.name_server.root_key();
  core::ProxyVerifier verifier(std::move(vc));
  EXPECT_TRUE(accounting::verify_certification(
                  verifier, cert.value().certification, check, "bank2",
                  "client", world_.clock.now())
                  .is_ok());
  // A different check number is not covered.
  const Check other = write_check(40, 999);
  EXPECT_FALSE(accounting::verify_certification(
                   verifier, cert.value().certification, other, "bank2",
                   "client", world_.clock.now())
                   .is_ok());
}

TEST_F(CertifiedCheckTest, CertifiedCheckSettlesFromHold) {
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           40, 102, "app-server")
                  .is_ok());
  // Further spending is limited by the hold...
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);

  const Check check = write_check(40, 102);
  auto payee = world_.accounting_client("app-server");
  auto reply = payee.endorse_and_deposit("bank1", check, "server-account");
  ASSERT_TRUE(reply.is_ok()) << reply.status();
  // Hold consumed, funds moved.
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 0);
  EXPECT_EQ(bank2_->account("client-account")->balances().balance("usd"),
            60);
}

TEST_F(CertifiedCheckTest, DuplicateCertificationRepliesIdempotently) {
  // A re-certify of the same check number (a retry after a lost reply)
  // gets the ORIGINAL certification back; the hold is not doubled.
  auto client = world_.accounting_client("client");
  auto first = client.certify("bank2", "client-account", "app-server",
                              "usd", 10, 103, "app-server");
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto again = client.certify("bank2", "client-account", "app-server",
                              "usd", 10, 103, "app-server");
  ASSERT_TRUE(again.is_ok()) << again.status();
  EXPECT_EQ(wire::encode_to_bytes(first.value()),
            wire::encode_to_bytes(again.value()));
  EXPECT_EQ(bank2_->deduped_replies(), 1u);
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 10);
}

TEST_F(CertifiedCheckTest, DuplicateCertificationRejectedWithoutDedup) {
  auto config = world_.accounting_config("bank2");
  config.enable_dedup = false;
  accounting::AccountingServer plain_bank(std::move(config));
  world_.net.attach("bank2", plain_bank);
  plain_bank.open_account("client-account", "client",
                          accounting::Balances{{"usd", 100}});

  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           10, 103, "app-server")
                  .is_ok());
  EXPECT_EQ(client
                .certify("bank2", "client-account", "app-server", "usd", 10,
                         103, "app-server")
                .code(),
            util::ErrorCode::kReplay);
}

TEST_F(CertifiedCheckTest, CertificationBeyondFundsRejected) {
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client
                .certify("bank2", "client-account", "app-server", "usd",
                         500, 104, "app-server")
                .code(),
            util::ErrorCode::kInsufficientFunds);
}

TEST_F(CertifiedCheckTest, ExpiredHoldReleased) {
  auto client = world_.accounting_client("client");
  ASSERT_TRUE(client
                  .certify("bank2", "client-account", "app-server", "usd",
                           40, 105, "app-server",
                           world_.clock.now() + 10 * util::kMinute)
                  .is_ok());
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 60);
  world_.clock.advance(20 * util::kMinute);
  // Any request triggers the purge; query our own account.
  ASSERT_TRUE(client.query("bank2", "client-account").is_ok());
  EXPECT_EQ(bank2_->account("client-account")->available("usd"), 100);
}

TEST_F(CertifiedCheckTest, HoldAndDedupEntryLastThroughTheirExpiryInstant) {
  // Exact instants: no simulated link latency moves the clock.
  world_.net.set_default_latency(0);
  auto client = world_.accounting_client("client");
  const util::TimePoint until = world_.clock.now() + 10 * util::kMinute;
  const auto certify = [&] {
    return client.certify("bank2", "client-account", "app-server", "usd", 40,
                          106, "app-server", until);
  };
  ASSERT_TRUE(certify().is_ok());

  // At now == expires_at both survive: a retry replays the stored reply
  // and the hold is still in place.
  world_.clock.set(until);
  ASSERT_TRUE(certify().is_ok());
  EXPECT_EQ(bank2_->deduped_replies(), 1u);
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 40);

  // One tick later the purge takes both: the hold is released, and a
  // retry certifies afresh instead of replaying.
  world_.clock.set(until + 1);
  ASSERT_TRUE(client.query("bank2", "client-account").is_ok());
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 0);
  ASSERT_TRUE(certify().is_ok());
  EXPECT_EQ(bank2_->deduped_replies(), 1u);
  EXPECT_EQ(bank2_->account("client-account")->held("usd"), 40);
}

TEST_F(CertifiedCheckTest, FullDedupTableEvictsTheEarliestExpiringEntry) {
  auto config = world_.accounting_config("bank2");
  config.dedup_capacity = 2;
  accounting::AccountingServer bank(std::move(config));
  world_.net.attach("bank2", bank);
  bank.open_account("client-account", "client",
                    accounting::Balances{{"usd", 100}});

  auto client = world_.accounting_client("client");
  const util::TimePoint now = world_.clock.now();
  const auto certify = [&](std::uint64_t number, util::Duration hold) {
    return client.certify("bank2", "client-account", "app-server", "usd", 10,
                          number, "app-server", now + hold);
  };
  // Key order 1, 2, 3; expiry order 2, 3, 1.  The third record finds the
  // table full with nothing expired and evicts #2.
  ASSERT_TRUE(certify(1, 3 * util::kHour).is_ok());
  ASSERT_TRUE(certify(2, 1 * util::kHour).is_ok());
  ASSERT_TRUE(certify(3, 2 * util::kHour).is_ok());

  ASSERT_TRUE(certify(1, 3 * util::kHour).is_ok());
  ASSERT_TRUE(certify(3, 2 * util::kHour).is_ok());
  EXPECT_EQ(bank.deduped_replies(), 2u);
  // #2's hold is still outstanding, but its stored reply is gone.
  EXPECT_EQ(certify(2, 1 * util::kHour).code(), util::ErrorCode::kReplay);
  EXPECT_EQ(bank.account("client-account")->held("usd"), 30);
}

TEST_F(CertifiedCheckTest, RestoredServerPurgesTheSameEntries) {
  auto client = world_.accounting_client("client");
  const util::TimePoint now = world_.clock.now();
  for (const std::uint64_t number : {107, 108, 109}) {
    ASSERT_TRUE(client
                    .certify("bank2", "client-account", "app-server", "usd",
                             10, number, "app-server",
                             now + static_cast<util::Duration>(number - 106) *
                                       10 * util::kMinute)
                    .is_ok());
  }
  const crypto::SymmetricKey key = crypto::SymmetricKey::generate();
  const auto books = [&](const accounting::AccountingServer& server) {
    return crypto::aead_open(key.derive_subkey("accounting:snapshot"),
                             server.snapshot(key))
        .value();
  };
  accounting::AccountingServer restored(world_.accounting_config("bank2"));
  ASSERT_TRUE(restored.restore(key, bank2_->snapshot(key)).is_ok());
  const util::Bytes before = books(*bank2_);
  ASSERT_EQ(books(restored), before);

  // #107 and #108 have expired; #109 has not.  Any request purges.
  world_.clock.advance(25 * util::kMinute);
  for (accounting::AccountingServer* server : {bank2_.get(), &restored}) {
    (void)server->handle(client.challenge_request("bank2"));
    EXPECT_EQ(server->account("client-account")->held("usd"), 10);
  }
  EXPECT_NE(books(*bank2_), before);
  EXPECT_EQ(books(restored), books(*bank2_));
}

}  // namespace
}  // namespace rproxy
