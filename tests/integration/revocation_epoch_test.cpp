// Revocation that takes effect on the NEXT presentation (§3.1), not the
// next cache TTL: every revocation event source — name-server removal and
// key rotation, KDC key rotation, local grantor revocation, authorization-
// server grantee revocation — must defeat a warm ChainVerifyCache entry.
// Cache capacity is generous and the TTL far exceeds the test duration
// throughout, so the registry (and nothing else) is what kills the chains.
// Also: cascaded revocation of one chain link, and persistence of
// revocation state across an accounting-server crash-restart.
#include <gtest/gtest.h>

#include <memory>

#include "authz/authorization_server.hpp"
#include "authz/capability.hpp"
#include "core/revocation_id.hpp"
#include "server/file_server.hpp"
#include "testing/env.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using testing::TempDir;
using testing::World;

class RevocationEpochTest : public ::testing::Test {
 protected:
  RevocationEpochTest() {
    world_.add_principal("alice");
    world_.add_principal("carol");
    world_.add_principal("file-server");
    server::EndServer::Config config =
        world_.end_server_config("file-server");
    config.verify_cache_capacity = 1024;
    config.verify_cache_ttl = 8 * util::kHour;  // TTL ≫ test duration
    server_ = std::make_unique<server::FileServer>(std::move(config));
    server_->put_file("/doc", "contents");
    server_->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    server_->acl().add(authz::AclEntry{{"carol"}, {}, {}, {}});
    world_.net.attach("file-server", *server_);
  }

  core::Proxy pk_capability(const PrincipalName& grantor) {
    return authz::make_capability_pk(
        grantor, world_.principal(grantor).identity, "file-server",
        {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
        util::kHour);
  }

  core::Proxy krb_capability(const PrincipalName& grantor) {
    kdc::KdcClient client = world_.kdc_client(grantor);
    auto tgt = client.authenticate(util::kHour);
    EXPECT_TRUE(tgt.is_ok()) << tgt.status();
    auto creds = client.get_ticket(tgt.value(), "file-server", util::kHour);
    EXPECT_TRUE(creds.is_ok()) << creds.status();
    return authz::make_capability_krb(
        client, creds.value(), {core::ObjectRights{"/doc", {"read"}}},
        world_.clock.now());
  }

  /// Presents `cap` as bob and returns the outcome.
  util::Status present(const core::Proxy& cap) {
    server::AppClient bob(world_.net, world_.clock, "bob");
    return bob.invoke_with_proxy("file-server", cap, "read", "/doc")
        .status();
  }

  /// Presents once and requires success — the cache entry is now warm.
  void warm(const core::Proxy& cap) {
    const util::Status st = present(cap);
    ASSERT_TRUE(st.is_ok()) << st;
    ASSERT_GE(server_->verifier().cache_stats().size, 1u);
  }

  World world_;
  std::unique_ptr<server::FileServer> server_;
};

TEST_F(RevocationEpochTest, NameServerRemovalKillsWarmChain) {
  const core::Proxy from_alice = pk_capability("alice");
  const core::Proxy from_carol = pk_capability("carol");
  warm(from_alice);
  warm(from_carol);

  world_.name_server.remove("alice");

  // Very next presentation: the warm entry is unseated by alice's stale
  // epoch and full verification can no longer resolve her key.
  EXPECT_FALSE(present(from_alice).is_ok());
  EXPECT_EQ(server_->verifier().cache_stats().revocation_stale_drops, 1u);
  // Carol's warm entry is untouched by the targeted invalidation.
  EXPECT_TRUE(present(from_carol).is_ok());
  EXPECT_EQ(server_->verifier().cache_stats().revocation_stale_drops, 1u);
}

TEST_F(RevocationEpochTest, NameServerKeyRotationKillsOldChains) {
  const core::Proxy old_cap = pk_capability("alice");
  warm(old_cap);

  // Alice's identity key is replaced (compromise recovery).
  const crypto::SigningKeyPair fresh = crypto::SigningKeyPair::generate();
  world_.name_server.register_key("alice", fresh.public_key());

  // Chains signed with the old key die on their next presentation...
  EXPECT_FALSE(present(old_cap).is_ok());
  // ...and grants under the new key verify fine.
  const core::Proxy new_cap = authz::make_capability_pk(
      "alice", fresh, "file-server",
      {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
      util::kHour);
  EXPECT_TRUE(present(new_cap).is_ok());
}

TEST_F(RevocationEpochTest, KdcKeyRotationKillsWarmSymChain) {
  world_.net.set_default_latency(0);
  const core::Proxy cap = krb_capability("alice");
  warm(cap);

  // Rotate alice's KDC key.  The proxy ticket is sealed under the END
  // SERVER's key, so it still decrypts and every cryptographic check on
  // the chain still passes — only the registry cutoff can kill it.
  world_.clock.advance(util::kMinute);
  (void)world_.kdc_server->db().register_with_password("alice",
                                                       "alice-new-pw");

  EXPECT_EQ(present(cap).code(), util::ErrorCode::kRevoked);
  EXPECT_GE(server_->verifier().cache_stats().revocation_stale_drops, 1u);
}

TEST_F(RevocationEpochTest, RevokeGrantorKillsWarmChainAndAclEntry) {
  const core::Proxy cap = pk_capability("alice");
  warm(cap);

  world_.clock.advance(util::kMinute);
  EXPECT_EQ(server_->revoke_grantor("alice"), 1u);

  // Verification (not just the ACL) rejects: the grant predates the
  // cutoff, so even servers sharing the registry but not this ACL agree.
  EXPECT_EQ(present(cap).code(), util::ErrorCode::kRevoked);
  // And a brand-new grant is still dead at the ACL (entry removed).
  const core::Proxy fresh = pk_capability("alice");
  EXPECT_EQ(present(fresh).code(), util::ErrorCode::kPermissionDenied);
}

TEST_F(RevocationEpochTest, CascadedRevocationOfOneLink) {
  // Depth-4 bearer cascade: alice → d1 → d2 → d3.  Revoking link 1 (the
  // first extension) kills every chain CONTAINING it (depths 2-4) while
  // the prefix (depth 1, alice's original grant) survives.
  std::vector<core::Proxy> chain_at;  // chain_at[i] has i+1 certificates
  chain_at.push_back(core::grant_pk_proxy(
      "alice", world_.principal("alice").identity,
      core::RestrictionSet{}, world_.clock.now(), util::kHour));
  for (int i = 0; i < 3; ++i) {
    chain_at.push_back(core::extend_bearer(chain_at.back(), {},
                                           world_.clock.now(), util::kHour)
                           .value());
  }

  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.resolver = &world_.resolver;
  vc.pk_root = world_.name_server.root_key();
  vc.verify_cache_capacity = 1024;
  vc.verify_cache_ttl = 8 * util::kHour;
  vc.revocation = &world_.revocation;
  const core::ProxyVerifier verifier(std::move(vc));

  for (const core::Proxy& p : chain_at) {
    auto v = verifier.verify_chain(p.chain, world_.clock.now());
    ASSERT_TRUE(v.is_ok()) << v.status();
  }

  world_.revocation.revoke_cert(
      "alice",
      core::revocation_id_of(chain_at[1].chain.certs[1]));

  // Deeper derivations all embed the revoked certificate: dead, even with
  // their entries warm.
  for (std::size_t depth = 2; depth <= 4; ++depth) {
    auto v = verifier.verify_chain(chain_at[depth - 1].chain,
                                   world_.clock.now());
    EXPECT_EQ(v.status().code(), util::ErrorCode::kRevoked)
        << "depth " << depth;
  }
  // The prefix chain never mentions link 1 and survives.
  auto prefix = verifier.verify_chain(chain_at[0].chain, world_.clock.now());
  EXPECT_TRUE(prefix.is_ok()) << prefix.status();
}

TEST_F(RevocationEpochTest, AuthzServerRevokeGranteeKillsIssuedProxy) {
  world_.add_principal("authz-server");
  authz::AuthorizationServer::Config config;
  config.name = "authz-server";
  config.own_key = world_.principal("authz-server").krb_key;
  config.net = &world_.net;
  config.clock = &world_.clock;
  config.kdc = World::kKdcName;
  config.resolver = &world_.resolver;
  config.pk_root = world_.name_server.root_key();
  config.revocation = &world_.revocation;
  authz::AuthorizationServer authz_server(config);
  world_.net.attach("authz-server", authz_server);

  authz::Acl acl;
  acl.add(authz::AclEntry{{"alice"}, {"read"}, {"/doc"}, {}});
  authz_server.set_acl("file-server", acl);

  kdc::KdcClient alice = world_.kdc_client("alice");
  auto tgt = alice.authenticate(4 * util::kHour);
  ASSERT_TRUE(tgt.is_ok());
  auto creds = alice.get_ticket(tgt.value(), "authz-server", 4 * util::kHour);
  ASSERT_TRUE(creds.is_ok());
  authz::AuthzClient client(world_.net, world_.clock, alice);
  auto proxy = client.request_authorization(
      creds.value(), "authz-server", "file-server", {}, 30 * util::kMinute);
  ASSERT_TRUE(proxy.is_ok()) << proxy.status();

  core::ProxyVerifier::Config vc;
  vc.server_name = "file-server";
  vc.server_key = world_.principal("file-server").krb_key;
  vc.verify_cache_capacity = 1024;
  vc.verify_cache_ttl = 8 * util::kHour;
  vc.revocation = &world_.revocation;
  const core::ProxyVerifier verifier(std::move(vc));
  ASSERT_TRUE(
      verifier.verify_chain(proxy.value().chain, world_.clock.now())
          .is_ok());

  // Revoke alice as a grantee: she loses her database entries (no NEW
  // proxies) AND every still-live proxy already issued to her (no
  // continued use of the OLD ones) — without nuking proxies the server
  // issued to other grantees.
  world_.clock.advance(util::kMinute);
  EXPECT_EQ(authz_server.revoke_grantee("alice"), 1u);

  EXPECT_EQ(client
                .request_authorization(creds.value(), "authz-server",
                                       "file-server", {},
                                       30 * util::kMinute)
                .code(),
            util::ErrorCode::kPermissionDenied);
  EXPECT_EQ(verifier.verify_chain(proxy.value().chain, world_.clock.now())
                .status()
                .code(),
            util::ErrorCode::kRevoked);
}

TEST_F(RevocationEpochTest, RevocationStateSurvivesCrashRestart) {
  // Revocation events observed by a storage-backed accounting server are
  // journaled and folded into snapshots; a restart rebuilds them into a
  // FRESH registry, so revocation outlives the process.
  TempDir dir;
  const crypto::SymmetricKey storage_key = crypto::SymmetricKey::generate();
  world_.add_principal("bank");

  const core::RevocationId listed =
      core::revocation_id_of(pk_capability("alice").chain.certs[0]);
  {
    auto config = world_.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = storage_key;
    accounting::AccountingServer bank(std::move(config));
    ASSERT_TRUE(bank.recover().is_ok());

    world_.revocation.bump("alice");
    world_.clock.advance(util::kMinute);
    world_.revocation.revoke_grants_before("carol", world_.clock.now());
    world_.revocation.revoke_cert("alice", listed);
  }

  // Journal-tail replay into a fresh registry.
  core::RevocationRegistry recovered;
  {
    auto config = world_.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = storage_key;
    config.revocation = &recovered;
    accounting::AccountingServer bank(std::move(config));
    ASSERT_TRUE(bank.recover().is_ok());

    EXPECT_EQ(recovered.epoch_of("alice"),
              world_.revocation.epoch_of("alice"));
    EXPECT_EQ(recovered.epoch_of("carol"),
              world_.revocation.epoch_of("carol"));
    EXPECT_EQ(recovered
                  .check_link("carol", world_.clock.now() - util::kMinute,
                              std::nullopt)
                  .code(),
              util::ErrorCode::kRevoked);
    EXPECT_EQ(recovered.check_link("alice", 0, listed).code(),
              util::ErrorCode::kRevoked);

    // Fold everything into a snapshot for the next restart.
    ASSERT_TRUE(bank.checkpoint().is_ok());
  }

  // Snapshot-based recovery (post-checkpoint) restores the same state.
  core::RevocationRegistry from_snapshot;
  {
    auto config = world_.accounting_config("bank");
    config.storage_dir = dir.sub("bank");
    config.storage_key = storage_key;
    config.revocation = &from_snapshot;
    accounting::AccountingServer bank(std::move(config));
    ASSERT_TRUE(bank.recover().is_ok());
    EXPECT_EQ(from_snapshot.epoch_of("alice"),
              world_.revocation.epoch_of("alice"));
    EXPECT_EQ(from_snapshot.check_link("alice", 0, listed).code(),
              util::ErrorCode::kRevoked);
  }
}

TEST_F(RevocationEpochTest, RevocationRecordIsDurableWhenTheEventReturns) {
  // Under group commit nothing but the listener itself commits a
  // revocation record; a crash right after the event returns must not
  // lose it, or a restarted bank verifies the revoked chain again.
  TempDir dir;
  world_.add_principal("bank");
  auto config = world_.accounting_config("bank");
  config.storage_dir = dir.sub("bank");
  config.storage_key = crypto::SymmetricKey::generate();
  accounting::AccountingServer bank(std::move(config));
  ASSERT_TRUE(bank.recover().is_ok());
  const std::uint64_t before = bank.journal_next_lsn();

  world_.revocation.bump("alice");
  EXPECT_EQ(bank.journal_durable_lsn(), bank.journal_next_lsn() - 1);
  world_.clock.advance(util::kMinute);
  world_.revocation.revoke_grants_before("carol", world_.clock.now());
  EXPECT_EQ(bank.journal_durable_lsn(), bank.journal_next_lsn() - 1);
  world_.revocation.revoke_cert(
      "alice", core::revocation_id_of(pk_capability("alice").chain.certs[0]));
  EXPECT_EQ(bank.journal_durable_lsn(), bank.journal_next_lsn() - 1);
  EXPECT_EQ(bank.journal_next_lsn(), before + 3);
  EXPECT_FALSE(bank.storage_dead());
}

}  // namespace
}  // namespace rproxy
