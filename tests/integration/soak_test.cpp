// Randomized whole-system soak: a mixed stream of grants, presentations,
// revocations, group operations and payments against every service at
// once, with global invariants re-checked after every step.  Think of it
// as a lightweight model checker for the deployment.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/random.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using crypto::DeterministicRng;
using testing::World;

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  SoakTest() {
    for (const char* name :
         {"alice", "bob", "carol", "group-server", "file-server", "bank"}) {
      world_.add_principal(name);
    }
    file_server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    file_server_->put_file("/doc", "contents");
    file_server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    world_.net.attach("file-server", *file_server_);

    authz::GroupServer::Config gc;
    gc.name = "group-server";
    gc.own_key = world_.principal("group-server").krb_key;
    gc.net = &world_.net;
    gc.clock = &world_.clock;
    gc.kdc = World::kKdcName;
    group_server_ = std::make_unique<authz::GroupServer>(gc);
    group_server_->add_member("staff", "bob");
    world_.net.attach("group-server", *group_server_);

    bank_ = std::make_unique<accounting::AccountingServer>(
        world_.accounting_config("bank"));
    world_.net.attach("bank", *bank_);
    bank_->open_account("alice-acct", "alice",
                        accounting::Balances{{"usd", 10'000}});
    bank_->open_account("bob-acct", "bob",
                        accounting::Balances{{"usd", 10'000}});
  }

  /// The global invariants that must hold after EVERY operation.
  void check_invariants() {
    // Conservation: no usd created or destroyed.
    std::int64_t total = 0;
    for (const char* account : {"alice-acct", "bob-acct"}) {
      const accounting::Account* a = bank_->account(account);
      ASSERT_NE(a, nullptr);
      ASSERT_GE(a->balances().balance("usd"), 0);
      ASSERT_GE(a->available("usd"), 0);
      total += a->balances().balance("usd");
    }
    ASSERT_EQ(total, 20'000);
    // Audit log is consistent: it keeps the newest decisions up to its
    // bound, and counts every one.
    const std::size_t decisions = file_server_->audit().allowed_count() +
                                  file_server_->audit().denied_count();
    ASSERT_EQ(file_server_->audit().recent().size(),
              std::min(decisions, server::AuditLog::kRecentCapacity));
    // No residual uncollected value.
    ASSERT_EQ(bank_->uncollected_total(), 0);
  }

  World world_;
  std::unique_ptr<server::FileServer> file_server_;
  std::unique_ptr<authz::GroupServer> group_server_;
  std::unique_ptr<accounting::AccountingServer> bank_;
};

TEST_P(SoakTest, MixedOperationsPreserveInvariants) {
  DeterministicRng rng(GetParam());
  std::vector<core::Proxy> live_capabilities;
  std::uint64_t next_ckno = 1;
  bool alice_revoked = false;

  for (int step = 0; step < 120; ++step) {
    switch (rng.next_below(8)) {
      case 0: {  // alice grants a capability
        live_capabilities.push_back(authz::make_capability_pk(
            "alice", world_.principal("alice").identity, "file-server",
            {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
            util::kHour));
        break;
      }
      case 1: {  // someone presents a random live capability
        if (live_capabilities.empty()) break;
        const core::Proxy& cap =
            live_capabilities[rng.next_below(live_capabilities.size())];
        server::AppClient client(world_.net, world_.clock, "bob");
        auto result =
            client.invoke_with_proxy("file-server", cap, "read", "/doc");
        // Allowed iff alice not revoked and the capability is unexpired.
        const bool expect_ok =
            !alice_revoked && cap.expires_at >= world_.clock.now();
        EXPECT_EQ(result.is_ok(), expect_ok)
            << "step " << step << ": " << result.status();
        break;
      }
      case 2: {  // revoke or reinstate alice
        if (alice_revoked) {
          file_server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
        } else {
          file_server_->acl().remove_principal("alice");
        }
        alice_revoked = !alice_revoked;
        break;
      }
      case 3: {  // alice pays bob by check (same bank, always clears)
        const std::uint64_t amount = 1 + rng.next_below(100);
        const accounting::Check check = accounting::write_check(
            "alice", world_.principal("alice").identity,
            AccountId{"bank", "alice-acct"}, "bob", "usd", amount,
            next_ckno++, world_.clock.now(), util::kHour);
        auto bob_acct = world_.accounting_client("bob");
        const std::int64_t before =
            bank_->account("alice-acct")->available("usd");
        auto cleared =
            bob_acct.endorse_and_deposit("bank", check, "bob-acct");
        EXPECT_EQ(cleared.is_ok(),
                  before >= static_cast<std::int64_t>(amount));
        break;
      }
      case 4: {  // duplicate deposit attempt of an OLD check number
        if (next_ckno <= 1) break;
        const accounting::Check dup = accounting::write_check(
            "alice", world_.principal("alice").identity,
            AccountId{"bank", "alice-acct"}, "bob", "usd", 1,
            rng.next_below(next_ckno - 1) + 1, world_.clock.now(),
            util::kHour);
        auto bob_acct = world_.accounting_client("bob");
        // May or may not have been spent; either way invariants hold.
        (void)bob_acct.endorse_and_deposit("bank", dup, "bob-acct");
        break;
      }
      case 5: {  // bob proves staff membership and reads via group entry
        file_server_->acl().add(authz::AclEntry{
            {authz::acl_group_token(GroupName{"group-server", "staff"})},
            {"read"},
            {"/doc"},
            {}});
        kdc::KdcClient bob = world_.kdc_client("bob");
        auto tgt = bob.authenticate(util::kHour);
        ASSERT_TRUE(tgt.is_ok());
        auto gcreds =
            bob.get_ticket(tgt.value(), "group-server", util::kHour);
        auto fcreds =
            bob.get_ticket(tgt.value(), "file-server", util::kHour);
        ASSERT_TRUE(gcreds.is_ok());
        ASSERT_TRUE(fcreds.is_ok());
        authz::GroupClient gc(world_.net, world_.clock, bob);
        auto membership = gc.request_membership(
            gcreds.value(), "group-server", "staff", "file-server",
            30 * util::kMinute);
        ASSERT_TRUE(membership.is_ok()) << membership.status();
        server::AppClient app(world_.net, world_.clock, "bob");
        auto result = app.invoke(
            "file-server", "read", "/doc", {}, {},
            [&](util::BytesView challenge, util::BytesView rdigest,
                server::AppRequestPayload& req) {
              core::PresentedCredential cred;
              cred.chain = membership.value().chain;
              cred.proof = core::prove_delegate_krb(
                  bob, fcreds.value(), challenge, "file-server",
                  world_.clock.now(), rdigest);
              req.group_credentials.push_back(cred);
            });
        EXPECT_TRUE(result.is_ok()) << result.status();
        break;
      }
      case 6: {  // time passes (expires old capabilities and holds)
        world_.clock.advance(
            static_cast<util::Duration>(rng.next_below(20)) * util::kMinute);
        break;
      }
      default: {  // carol tries to steal a random capability's chain
        if (live_capabilities.empty()) break;
        const core::Proxy& cap =
            live_capabilities[rng.next_below(live_capabilities.size())];
        core::Proxy forged = cap;
        forged.secret = crypto::SigningKeyPair::generate().private_bytes();
        server::AppClient carol(world_.net, world_.clock, "carol");
        EXPECT_FALSE(
            carol.invoke_with_proxy("file-server", forged, "read", "/doc")
                .is_ok());
        break;
      }
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace rproxy
