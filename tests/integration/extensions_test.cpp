// Extensions from the paper's discussion sections:
//  * TGS proxies (§6.3) — a proxy for the ticket-granting service lets the
//    grantee obtain equally-restricted tickets for further end-servers;
//  * timestamp-mode presentation (§2's "signed or encrypted timestamp") —
//    2-message presentations guarded by a replay cache;
//  * cashier's checks (§4, "left as an exercise for the reader").
#include <gtest/gtest.h>

#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

class TgsProxyTest : public ::testing::Test {
 protected:
  TgsProxyTest() {
    world_.add_principal("alice");
    world_.add_principal("bob");
    world_.add_principal("file-server");
    server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    server_->put_file("/doc", "contents");
    server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    world_.net.attach("file-server", *server_);
  }

  /// alice grants bob a proxy for the TGS, restricted as given.
  core::Proxy grant_tgs_proxy(core::RestrictionSet restrictions) {
    kdc::KdcClient alice = world_.kdc_client("alice");
    auto tgt = alice.authenticate(4 * util::kHour);
    EXPECT_TRUE(tgt.is_ok());
    return core::grant_krb_proxy(alice, tgt.value(),
                                 std::move(restrictions),
                                 world_.clock.now());
  }

  World world_;
  std::unique_ptr<server::FileServer> server_;
};

TEST_F(TgsProxyTest, GranteeObtainsTicketsThroughProxy) {
  const core::Proxy proxy = grant_tgs_proxy({});
  auto creds = kdc::use_tgs_proxy(
      world_.net, "bob", World::kKdcName, *proxy.chain.krb_root,
      crypto::SymmetricKey::from_bytes(proxy.secret), "file-server",
      util::kHour);
  ASSERT_TRUE(creds.is_ok()) << creds.status();
  EXPECT_EQ(creds.value().server, "file-server");
  EXPECT_EQ(creds.value().client, "alice");  // bob acts AS alice

  // The derived credentials actually work at the end-server.
  kdc::KdcClient bob(world_.net, world_.clock, "bob",
                     world_.principal("bob").krb_key, World::kKdcName);
  server::AppClient app(world_.net, world_.clock, "bob");
  auto read = app.invoke(
      "file-server", "read", "/doc", {}, {},
      [&](util::BytesView challenge, util::BytesView rdigest,
          server::AppRequestPayload& req) {
        req.identity = core::prove_delegate_krb(bob, creds.value(),
                                                challenge, "file-server",
                                                world_.clock.now(), rdigest);
      });
  ASSERT_TRUE(read.is_ok()) << read.status();
  EXPECT_EQ(util::to_string(read.value()), "contents");
}

TEST_F(TgsProxyTest, RestrictionsSurviveIntoDerivedTickets) {
  // "Such a proxy allows the grantee to obtain proxies with IDENTICAL
  // RESTRICTIONS for additional end-servers as needed." (§6.3)
  core::RestrictionSet restrictions;
  restrictions.add(core::AuthorizedRestriction{
      {core::ObjectRights{"/doc", {"read"}}}});
  const core::Proxy proxy = grant_tgs_proxy(restrictions);

  auto creds = kdc::use_tgs_proxy(
      world_.net, "bob", World::kKdcName, *proxy.chain.krb_root,
      crypto::SymmetricKey::from_bytes(proxy.secret), "file-server",
      util::kHour);
  ASSERT_TRUE(creds.is_ok()) << creds.status();

  auto body = kdc::open_ticket(creds.value().ticket,
                               world_.principal("file-server").krb_key);
  ASSERT_TRUE(body.is_ok());
  auto restored =
      core::RestrictionSet::from_blobs(body.value().authorization_data);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), restrictions);

  // And they bind at the end-server: bob can read /doc but not delete it.
  kdc::KdcClient bob(world_.net, world_.clock, "bob",
                     world_.principal("bob").krb_key, World::kKdcName);
  server::AppClient app(world_.net, world_.clock, "bob");
  const auto use = [&](const Operation& op) {
    return app.invoke(
        "file-server", op, "/doc", {}, {},
        [&](util::BytesView challenge, util::BytesView rdigest,
            server::AppRequestPayload& req) {
          // The derived credentials ARE a proxy: present them as one (the
          // ticket carries the restrictions; bob proves possession of the
          // session key via a fresh authenticator inside the proof).
          core::PresentedCredential cred;
          cred.chain.mode = core::ProxyMode::kSymmetric;
          const crypto::SymmetricKey proxy_key =
              crypto::SymmetricKey::generate();
          cred.chain.krb_root = bob.make_ap_request(
              creds.value(), proxy_key.bytes(), {});
          core::Proxy as_proxy;
          as_proxy.chain = cred.chain;
          as_proxy.secret = proxy_key.bytes();
          cred.proof = core::prove_bearer(as_proxy, challenge, "file-server",
                                          world_.clock.now(), rdigest);
          req.credentials.push_back(std::move(cred));
        });
  };
  EXPECT_TRUE(use("read").is_ok());
  EXPECT_EQ(use("delete").code(), util::ErrorCode::kRestrictionViolated);
}

TEST_F(TgsProxyTest, GranteeCannotRemoveRestrictions) {
  core::RestrictionSet restrictions;
  restrictions.add(core::QuotaRestriction{"pages", 3});
  const core::Proxy proxy = grant_tgs_proxy(restrictions);

  // bob asks for a ticket with NO additional restrictions; the TGS still
  // copies the proxy's restrictions in.
  auto creds = kdc::use_tgs_proxy(
      world_.net, "bob", World::kKdcName, *proxy.chain.krb_root,
      crypto::SymmetricKey::from_bytes(proxy.secret), "file-server",
      util::kHour, {});
  ASSERT_TRUE(creds.is_ok());
  auto body = kdc::open_ticket(creds.value().ticket,
                               world_.principal("file-server").krb_key);
  ASSERT_TRUE(body.is_ok());
  EXPECT_FALSE(body.value().authorization_data.empty());
}

TEST_F(TgsProxyTest, WrongProxyKeyCannotReadReply) {
  const core::Proxy proxy = grant_tgs_proxy({});
  auto creds = kdc::use_tgs_proxy(
      world_.net, "bob", World::kKdcName, *proxy.chain.krb_root,
      crypto::SymmetricKey::generate(),  // not the proxy key
      "file-server", util::kHour);
  EXPECT_EQ(creds.code(), util::ErrorCode::kBadSignature);
}

TEST_F(TgsProxyTest, PlainTicketWithoutSubkeyNotAcceptedAsProxy) {
  // A replayed ORDINARY TGS request (no subkey) must still be rejected by
  // the replay cache — the proxy path only opens for subkey-bearing pairs.
  kdc::KdcClient alice = world_.kdc_client("alice");
  auto tgt = alice.authenticate(util::kHour);
  ASSERT_TRUE(tgt.is_ok());
  net::RecordingTap tap;
  world_.net.add_tap(tap);
  ASSERT_TRUE(
      alice.get_ticket(tgt.value(), "file-server", util::kHour).is_ok());
  auto replayed =
      world_.net.inject(tap.of_type(net::MsgType::kTgsRequest).front());
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kReplay);
}

class TimestampModeTest : public ::testing::Test {
 protected:
  TimestampModeTest() {
    world_.add_principal("alice");
    world_.add_principal("file-server");
    server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    server_->put_file("/doc", "contents");
    server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    world_.net.attach("file-server", *server_);
    cap_ = authz::make_capability_pk(
        "alice", world_.principal("alice").identity, "file-server",
        {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
        util::kHour);
  }

  World world_;
  std::unique_ptr<server::FileServer> server_;
  core::Proxy cap_;
};

TEST_F(TimestampModeTest, TwoMessagePresentation) {
  server::AppClient bob(world_.net, world_.clock, "bob");
  world_.net.reset_stats();
  auto read = bob.invoke_with_proxy_timestamp("file-server", cap_, "read",
                                              "/doc");
  ASSERT_TRUE(read.is_ok()) << read.status();
  EXPECT_EQ(util::to_string(read.value()), "contents");
  EXPECT_EQ(world_.net.stats().messages, 2u);  // vs 4 in challenge mode
}

TEST_F(TimestampModeTest, ReplayOfTimestampProofRejected) {
  server::AppClient bob(world_.net, world_.clock, "bob");
  net::RecordingTap tap;
  world_.net.add_tap(tap);
  ASSERT_TRUE(bob.invoke_with_proxy_timestamp("file-server", cap_, "read",
                                              "/doc")
                  .is_ok());
  auto replayed =
      world_.net.inject(tap.of_type(net::MsgType::kAppRequest).front());
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kReplay);
}

TEST_F(TimestampModeTest, CopyWithShiftedTimestampIsRefused) {
  // The replay cache keys a proof on (expiry derived from its timestamp,
  // digest of its blob).  A captured request whose proof timestamp moved
  // by a second (still fresh) misses that key, so the proof check must
  // refuse it: the blob's signature covers the timestamp.
  server::AppClient bob(world_.net, world_.clock, "bob");
  net::RecordingTap tap;
  world_.net.add_tap(tap);
  ASSERT_TRUE(bob.invoke_with_proxy_timestamp("file-server", cap_, "read",
                                              "/doc")
                  .is_ok());
  net::Envelope copy = tap.of_type(net::MsgType::kAppRequest).front();
  auto req = wire::decode_from_bytes<server::AppRequestPayload>(copy.payload);
  ASSERT_TRUE(req.is_ok());
  ASSERT_EQ(req.value().credentials.size(), 1u);
  req.value().credentials[0].proof.timestamp += util::kSecond;
  copy.payload = wire::encode_to_bytes(req.value());

  auto replayed = world_.net.inject(copy);
  ASSERT_TRUE(replayed.is_ok());
  const util::ErrorCode code = net::status_of(replayed.value()).code();
  EXPECT_TRUE(code == util::ErrorCode::kReplay ||
              code == util::ErrorCode::kBadSignature)
      << "reply code " << static_cast<int>(code);
}

TEST_F(TimestampModeTest, StaleTimestampProofRejected) {
  // Build a proof now, deliver it much later.
  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = 0;
  core::PresentedCredential cred;
  cred.chain = cap_.chain;
  cred.proof = core::prove_bearer(cap_, {}, "file-server",
                                  world_.clock.now(), req.digest());
  req.credentials.push_back(cred);
  world_.clock.advance(10 * util::kMinute);

  auto reply = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              wire::encode_to_bytes(req));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(), util::ErrorCode::kExpired);
}

TEST_F(TimestampModeTest, FreshProofsKeepWorking) {
  server::AppClient bob(world_.net, world_.clock, "bob");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(bob.invoke_with_proxy_timestamp("file-server", cap_, "read",
                                                "/doc")
                    .is_ok());
  }
}

class CashierCheckTest : public ::testing::Test {
 protected:
  CashierCheckTest() {
    world_.add_principal("client");
    world_.add_principal("merchant");
    world_.add_principal("bank1");
    world_.add_principal("bank2");
    bank1_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank1"));
    bank2_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank2"));
    world_.net.attach("bank1", *bank1_);
    world_.net.attach("bank2", *bank2_);
    bank2_->open_account("client-acct", "client",
                         accounting::Balances{{"usd", 100}});
    bank1_->open_account("merchant-acct", "merchant");
  }

  World world_;
  std::unique_ptr<accounting::AccountingServer> bank1_;
  std::unique_ptr<accounting::AccountingServer> bank2_;
};

TEST_F(CashierCheckTest, PurchaseMovesFundsImmediately) {
  auto client = world_.accounting_client("client");
  auto check = client.buy_cashier_check("bank2", "client-acct", "merchant",
                                        "usd", 40);
  ASSERT_TRUE(check.is_ok()) << check.status();
  EXPECT_EQ(bank2_->account("client-acct")->balances().balance("usd"), 60);
  EXPECT_EQ(bank2_->account(std::string(accounting::kCashierAccount))
                ->balances()
                .balance("usd"),
            40);
  // The check is drawn on the bank, not on the client.
  EXPECT_EQ(check.value().chain.certs[0].grantor, "bank2");
  EXPECT_EQ(check.value().payor_account.account,
            std::string(accounting::kCashierAccount));
}

TEST_F(CashierCheckTest, CashierCheckClearsAcrossServers) {
  auto client = world_.accounting_client("client");
  auto check = client.buy_cashier_check("bank2", "client-acct", "merchant",
                                        "usd", 40);
  ASSERT_TRUE(check.is_ok());

  auto merchant = world_.accounting_client("merchant");
  auto cleared =
      merchant.endorse_and_deposit("bank1", check.value(), "merchant-acct");
  ASSERT_TRUE(cleared.is_ok()) << cleared.status();
  EXPECT_EQ(bank1_->account("merchant-acct")->balances().balance("usd"),
            40);
  EXPECT_EQ(bank2_->account(std::string(accounting::kCashierAccount))
                ->balances()
                .balance("usd"),
            0);
}

TEST_F(CashierCheckTest, CannotBounce) {
  // Unlike a personal check, the funds were captured at purchase: there is
  // no insufficient-funds path at clearing time.
  auto client = world_.accounting_client("client");
  auto check = client.buy_cashier_check("bank2", "client-acct", "merchant",
                                        "usd", 100);  // entire balance
  ASSERT_TRUE(check.is_ok());
  // Client account is now empty; the check still clears.
  EXPECT_EQ(bank2_->account("client-acct")->balances().balance("usd"), 0);
  auto merchant = world_.accounting_client("merchant");
  EXPECT_TRUE(merchant
                  .endorse_and_deposit("bank1", check.value(),
                                       "merchant-acct")
                  .is_ok());
}

TEST_F(CashierCheckTest, InsufficientFundsAtPurchase) {
  auto client = world_.accounting_client("client");
  EXPECT_EQ(client
                .buy_cashier_check("bank2", "client-acct", "merchant", "usd",
                                   101)
                .code(),
            util::ErrorCode::kInsufficientFunds);
}

TEST_F(CashierCheckTest, OnlyAccountHolderCanBuy) {
  auto stranger = world_.accounting_client("merchant");
  EXPECT_EQ(stranger
                .buy_cashier_check("bank2", "client-acct", "merchant", "usd",
                                   10)
                .code(),
            util::ErrorCode::kPermissionDenied);
}

TEST_F(CashierCheckTest, DoubleDepositRepliesIdempotently) {
  auto client = world_.accounting_client("client");
  auto check = client.buy_cashier_check("bank2", "client-acct", "merchant",
                                        "usd", 10);
  ASSERT_TRUE(check.is_ok());
  auto merchant = world_.accounting_client("merchant");
  ASSERT_TRUE(merchant
                  .endorse_and_deposit("bank1", check.value(),
                                       "merchant-acct")
                  .is_ok());
  // Exactly-once clearing: the second deposit is answered from bank1's
  // dedup table — same reply, but the money moved only once.
  auto again =
      merchant.endorse_and_deposit("bank1", check.value(), "merchant-acct");
  ASSERT_TRUE(again.is_ok()) << again.status();
  EXPECT_EQ(bank1_->account("merchant-acct")->balances().balance("usd"),
            10);
  EXPECT_EQ(bank1_->deduped_replies(), 1u);
}

}  // namespace
}  // namespace rproxy
