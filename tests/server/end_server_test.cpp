// End-server framework tests: challenges, credential processing, ACL
// dispatch, identity access, group assertions, concurrence, audit.
#include "server/end_server.hpp"

#include <gtest/gtest.h>

#include "crypto/random.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using testing::World;

class EndServerTest : public ::testing::Test {
 protected:
  EndServerTest() {
    world_.add_principal("alice");
    world_.add_principal("bob");
    world_.add_principal("file-server");
    server_ = std::make_unique<server::FileServer>(
        world_.end_server_config("file-server"));
    server_->put_file("/doc", "contents");
    world_.net.attach("file-server", *server_);
  }

  core::Proxy alice_capability() {
    return authz::make_capability_pk(
        "alice", world_.principal("alice").identity, "file-server",
        {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
        util::kHour);
  }

  World world_;
  std::unique_ptr<server::FileServer> server_;
};

TEST_F(EndServerTest, ChallengeIsSingleUse) {
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");

  auto challenge = bob.get_challenge("file-server");
  ASSERT_TRUE(challenge.is_ok());

  const auto build = [&](server::AppRequestPayload& req) {
    req.operation = "read";
    req.object = "/doc";
    req.challenge_id = challenge.value().id;
    core::PresentedCredential cred;
    cred.chain = cap.chain;
    cred.proof =
        core::prove_bearer(cap, challenge.value().nonce, "file-server",
                           world_.clock.now(), req.digest());
    req.credentials.push_back(cred);
  };

  server::AppRequestPayload req;
  build(req);
  auto first = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              wire::encode_to_bytes(req));
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(net::status_of(first.value()).is_ok());

  // Replaying the exact same request (same challenge) must fail.
  auto second = world_.net.rpc("bob", "file-server",
                               net::MsgType::kAppRequest,
                               wire::encode_to_bytes(req));
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(net::status_of(second.value()).code(),
            util::ErrorCode::kProtocolError);
}

TEST_F(EndServerTest, ExpiredChallengeRejected) {
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");
  auto challenge = bob.get_challenge("file-server");
  ASSERT_TRUE(challenge.is_ok());
  world_.clock.advance(util::kHour);

  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = challenge.value().id;
  core::PresentedCredential cred;
  cred.chain = cap.chain;
  cred.proof = core::prove_bearer(cap, challenge.value().nonce,
                                  "file-server", world_.clock.now(),
                                  req.digest());
  req.credentials.push_back(cred);

  auto reply = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              wire::encode_to_bytes(req));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(), util::ErrorCode::kExpired);
}

TEST_F(EndServerTest, IdentityOnlyAccessForLocalUsers) {
  // §3.5: "local users might appear directly in the access-control-list".
  server_->acl().add(authz::AclEntry{{"bob"}, {"read"}, {"/doc"}, {}});
  server::AppClient bob(world_.net, world_.clock, "bob");
  const testing::Principal& bob_p = world_.principal("bob");

  auto result = bob.invoke(
      "file-server", "read", "/doc", {}, {},
      [&](util::BytesView challenge, util::BytesView rdigest,
          server::AppRequestPayload& req) {
        req.identity = core::prove_delegate_pk(bob_p.cert, bob_p.identity,
                                               challenge, "file-server",
                                               world_.clock.now(), rdigest);
      });
  ASSERT_TRUE(result.is_ok()) << result.status();
  EXPECT_EQ(util::to_string(result.value()), "contents");
}

TEST_F(EndServerTest, NoCredentialsDenied) {
  server::AppClient bob(world_.net, world_.clock, "bob");
  auto result = bob.invoke("file-server", "read", "/doc", {}, {},
                           [](util::BytesView, util::BytesView,
                              server::AppRequestPayload&) {});
  EXPECT_EQ(result.code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(EndServerTest, DelegateProxyRequiresNamedGrantee) {
  // alice grants a delegate proxy naming bob; carol cannot use it even
  // with the proxy key.
  world_.add_principal("carol");
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  core::RestrictionSet set;
  set.add(core::GranteeRestriction{{"bob"}, 1});
  set.add(core::IssuedForRestriction{{"file-server"}});
  const core::Proxy proxy =
      core::grant_pk_proxy("alice", world_.principal("alice").identity, set,
                           world_.clock.now(), util::kHour);

  const auto present_as = [&](const PrincipalName& who) {
    const testing::Principal& p = world_.principal(who);
    server::AppClient client(world_.net, world_.clock, who);
    return client.invoke(
        "file-server", "read", "/doc", {}, {},
        [&](util::BytesView challenge, util::BytesView rdigest,
            server::AppRequestPayload& req) {
          core::PresentedCredential cred;
          cred.chain = proxy.chain;
          cred.proof = core::prove_delegate_pk(p.cert, p.identity, challenge,
                                               "file-server",
                                               world_.clock.now(), rdigest);
          req.credentials.push_back(cred);
        });
  };

  EXPECT_TRUE(present_as("bob").is_ok());
  EXPECT_EQ(present_as("carol").code(), util::ErrorCode::kNotGrantee);
}

TEST_F(EndServerTest, ConcurrenceViaTwoProxies) {
  // §3.5: compound entry requires proxies from two grantors.
  world_.add_principal("carol");
  server_->acl().add(
      authz::AclEntry{{"alice", "carol"}, {"read"}, {"/doc"}, {}});

  const core::Proxy from_alice = alice_capability();
  const core::Proxy from_carol = authz::make_capability_pk(
      "carol", world_.principal("carol").identity, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
      util::kHour);

  server::AppClient bob(world_.net, world_.clock, "bob");
  const auto with = [&](std::vector<const core::Proxy*> proxies) {
    return bob.invoke(
        "file-server", "read", "/doc", {}, {},
        [&](util::BytesView challenge, util::BytesView rdigest,
            server::AppRequestPayload& req) {
          for (const core::Proxy* p : proxies) {
            core::PresentedCredential cred;
            cred.chain = p->chain;
            cred.proof = core::prove_bearer(*p, challenge, "file-server",
                                            world_.clock.now(), rdigest);
            req.credentials.push_back(cred);
          }
        });
  };

  EXPECT_EQ(with({&from_alice}).code(), util::ErrorCode::kPermissionDenied);
  EXPECT_TRUE(with({&from_alice, &from_carol}).is_ok());
}

TEST_F(EndServerTest, AclEntryRestrictionsEnforcedLocally) {
  // §3.5: entries carry restrictions enforced on use.
  core::RestrictionSet entry_rs;
  entry_rs.add(core::QuotaRestriction{"pages", 2});
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, entry_rs});
  const core::Proxy cap = authz::make_capability_pk(
      "alice", world_.principal("alice").identity, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
      util::kHour);
  server::AppClient bob(world_.net, world_.clock, "bob");
  EXPECT_TRUE(bob.invoke_with_proxy("file-server", cap, "read", "/doc",
                                    {{"pages", 2}})
                  .is_ok());
  EXPECT_EQ(bob.invoke_with_proxy("file-server", cap, "read", "/doc",
                                  {{"pages", 3}})
                .code(),
            util::ErrorCode::kRestrictionViolated);
}

TEST_F(EndServerTest, AuditLogRecordsOutcomes) {
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");
  ASSERT_TRUE(
      bob.invoke_with_proxy("file-server", cap, "read", "/doc").is_ok());
  ASSERT_FALSE(
      bob.invoke_with_proxy("file-server", cap, "read", "/secret").is_ok());

  EXPECT_EQ(server_->audit().allowed_count(), 1u);
  EXPECT_EQ(server_->audit().denied_count(), 1u);
  const std::vector<server::AuditRecord> recent = server_->audit().recent();
  ASSERT_EQ(recent.size(), 2u);
  const server::AuditRecord& ok = recent[0];
  EXPECT_EQ(ok.operation, "read");
  EXPECT_EQ(ok.object, "/doc");
  EXPECT_EQ(ok.authority, "alice");
  EXPECT_TRUE(ok.allowed);
}

// Memory keeps exact counts and only the newest records; the sink keeps
// every one.
TEST_F(EndServerTest, AuditSinkKeepsEveryRecordMemoryOnlyTheNewest) {
  testing::TempDir dir;
  const std::string path = dir.sub("audit.wal");
  ASSERT_TRUE(server_->audit().open_sink(path).is_ok());
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");
  constexpr std::size_t kRequests = server::AuditLog::kRecentCapacity + 500;
  std::size_t allowed = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const bool allow = i % 3 != 0;
    const auto result = bob.invoke_with_proxy("file-server", cap, "read",
                                              allow ? "/doc" : "/secret");
    ASSERT_EQ(result.is_ok(), allow) << i << ": " << result.status();
    allowed += allow ? 1 : 0;
  }

  EXPECT_EQ(server_->audit().allowed_count(), allowed);
  EXPECT_EQ(server_->audit().denied_count(), kRequests - allowed);
  const std::vector<server::AuditRecord> recent = server_->audit().recent();
  ASSERT_EQ(recent.size(), server::AuditLog::kRecentCapacity);
  EXPECT_EQ(recent.back().object, "/doc");  // request 1523 was allowed
  EXPECT_TRUE(recent.back().allowed);

  auto trail = server::AuditLog::read_sink(path);
  ASSERT_TRUE(trail.is_ok()) << trail.status();
  ASSERT_EQ(trail.value().size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(trail.value()[i].allowed, i % 3 != 0) << i;
  }
  // The tail in memory is the trail's last kRecentCapacity records.
  const std::size_t first = kRequests - recent.size();
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].object, trail.value()[first + i].object) << i;
    EXPECT_EQ(recent[i].allowed, trail.value()[first + i].allowed) << i;
  }
}

TEST_F(EndServerTest, MalformedRequestRejected) {
  auto reply = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              util::Bytes{1, 2, 3});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(),
            util::ErrorCode::kParseError);
}

TEST_F(EndServerTest, UnknownMessageTypeRejected) {
  auto reply = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAsRequest, {});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(net::status_of(reply.value()).code(),
            util::ErrorCode::kProtocolError);
}

// A timestamp-mode proof's freshness is checked before the proof enters
// the replay cache, whose expiry comes from the proof's own timestamp.  A
// forged proof dated a year ahead is refused as stale every time; it is
// not remembered (and answered kReplay) for a year.  A fresh proof that
// is replayed is still caught by the cache.
TEST_F(EndServerTest, FutureDatedProofIsExpiredBeforeTheReplayCache) {
  server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
  const core::Proxy cap = alice_capability();
  const auto send = [&](const core::PossessionProof& proof) {
    server::AppRequestPayload req;
    req.operation = "read";
    req.object = "/doc";
    req.credentials.push_back(core::PresentedCredential{cap.chain, proof});
    auto reply = world_.net.rpc("bob", "file-server",
                                net::MsgType::kAppRequest,
                                wire::encode_to_bytes(req));
    EXPECT_TRUE(reply.is_ok());
    return net::status_of(reply.value()).code();
  };
  server::AppRequestPayload digest_of;
  digest_of.operation = "read";
  digest_of.object = "/doc";

  core::PossessionProof forged = core::prove_bearer(
      cap, {}, "file-server", world_.clock.now(), digest_of.digest());
  forged.timestamp = world_.clock.now() + 365 * 24 * util::kHour;
  forged.blob = crypto::random_bytes(64);
  EXPECT_EQ(send(forged), util::ErrorCode::kExpired);
  EXPECT_EQ(send(forged), util::ErrorCode::kExpired);

  const core::PossessionProof fresh = core::prove_bearer(
      cap, {}, "file-server", world_.clock.now(), digest_of.digest());
  EXPECT_EQ(send(fresh), util::ErrorCode::kOk);
  EXPECT_EQ(send(fresh), util::ErrorCode::kReplay);
}

}  // namespace
}  // namespace rproxy
