// Chain-verification cache correctness.
//
// The cache may elide signature/MAC/ticket re-verification for
// byte-identical chains, and NOTHING else: expiry, proof freshness,
// challenge single-use, replay protection, accept-once and restriction
// evaluation must behave identically with the cache on or off.  Most tests
// here run the same scenario against a cached and an uncached verifier (or
// end-server) and assert the outcomes agree.
#include <gtest/gtest.h>

#include "authz/capability.hpp"
#include "core/revocation_id.hpp"
#include "core/verifier.hpp"
#include "server/file_server.hpp"
#include "testing/env.hpp"

namespace rproxy {
namespace {

using testing::World;

core::RestrictionSet one_quota(std::uint64_t n) {
  core::RestrictionSet set;
  set.add(core::QuotaRestriction{"usd", n});
  return set;
}

class VerifyCacheTest : public ::testing::Test {
 protected:
  VerifyCacheTest() {
    world_.add_principal("alice");
    world_.add_principal("file-server");
  }

  core::ProxyVerifier make_verifier(std::size_t capacity,
                                    util::Duration ttl = 5 * util::kMinute,
                                    bool with_revocation = false) {
    core::ProxyVerifier::Config vc;
    vc.server_name = "file-server";
    vc.server_key = world_.principal("file-server").krb_key;
    vc.resolver = &world_.resolver;
    vc.pk_root = world_.name_server.root_key();
    vc.verify_cache_capacity = capacity;
    vc.verify_cache_ttl = ttl;
    if (with_revocation) vc.revocation = &world_.revocation;
    return core::ProxyVerifier(std::move(vc));
  }

  core::Proxy pk_chain(std::size_t depth, util::Duration lifetime) {
    core::Proxy proxy =
        core::grant_pk_proxy("alice", world_.principal("alice").identity,
                             one_quota(100), world_.clock.now(), lifetime);
    for (std::size_t i = 1; i < depth; ++i) {
      proxy = core::extend_bearer(proxy, one_quota(100 - i),
                                  world_.clock.now(), lifetime)
                  .value();
    }
    return proxy;
  }

  /// Ed25519 verifications this process has run so far.
  static std::uint64_t ed25519_verifies() {
    const crypto::KeyCacheStats stats = crypto::key_cache_stats();
    return stats.verify_hits + stats.verify_misses;
  }

  World world_;
};

TEST_F(VerifyCacheTest, WarmHitSkipsReverification) {
  const core::Proxy proxy = pk_chain(4, util::kHour);
  const core::ProxyVerifier verifier = make_verifier(1024);

  auto first = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto second = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(second.is_ok()) << second.status();

  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);

  // The cached result is indistinguishable from the fresh one.
  EXPECT_EQ(first.value().grantor, second.value().grantor);
  EXPECT_EQ(first.value().expires_at, second.value().expires_at);
  EXPECT_EQ(first.value().chain_length, second.value().chain_length);
  EXPECT_EQ(wire::encode_to_bytes(first.value().effective_restrictions),
            wire::encode_to_bytes(second.value().effective_restrictions));
}

TEST_F(VerifyCacheTest, ExpiredChainRejectedAfterWarmHit) {
  const core::Proxy proxy = pk_chain(2, 10 * util::kMinute);
  // TTL longer than the chain lifetime so expiry, not the TTL, triggers.
  const core::ProxyVerifier cached = make_verifier(1024, util::kHour);
  const core::ProxyVerifier uncached = make_verifier(0);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(cached.cache_stats().hits, 1u);

  world_.clock.advance(util::kHour);
  auto with_cache = cached.verify_chain(proxy.chain, world_.clock.now());
  auto without = uncached.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), util::ErrorCode::kExpired);
  // Exact parity: the cached path falls through to full verification, so
  // even the message matches the uncached verifier's.
  EXPECT_EQ(with_cache.status().to_string(), without.status().to_string());
  EXPECT_EQ(cached.cache_stats().expired_drops, 1u);
}

TEST_F(VerifyCacheTest, TamperedChainMissesCacheAndFails) {
  const core::Proxy proxy = pk_chain(3, util::kHour);
  const core::ProxyVerifier cached = make_verifier(1024);
  const core::ProxyVerifier uncached = make_verifier(0);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());

  // Flip one bit of a middle certificate's signature.
  core::ProxyChain tampered = proxy.chain;
  tampered.certs[1].signature[5] ^= 0x01;
  auto with_cache = cached.verify_chain(tampered, world_.clock.now());
  auto without = uncached.verify_chain(tampered, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), without.status().code());

  // The tampered bytes hash to a different key: a miss, never a hit, and
  // the failed verification is not cached afterwards.
  const core::ChainCacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 1u);
}

TEST_F(VerifyCacheTest, TtlLapseForcesReverification) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, /*ttl=*/util::kMinute);

  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  world_.clock.advance(2 * util::kMinute);
  // Chain still valid but the reuse window lapsed: full re-verification.
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());

  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.expired_drops, 1u);
}

TEST_F(VerifyCacheTest, CapacityBoundEvicts) {
  const core::ProxyVerifier verifier = make_verifier(2);
  std::vector<core::Proxy> proxies;
  for (int i = 0; i < 3; ++i) proxies.push_back(pk_chain(1, util::kHour));

  for (const core::Proxy& p : proxies) {
    ASSERT_TRUE(verifier.verify_chain(p.chain, world_.clock.now()).is_ok());
  }
  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // The evicted (least recently used) chain re-verifies fine — as a miss.
  ASSERT_TRUE(
      verifier.verify_chain(proxies[0].chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().misses, 4u);
}

// --- Eviction order: what a hit saves, how often it is presented ---

TEST_F(VerifyCacheTest, PublicKeyChainOutlivesSymmetricTraffic) {
  world_.net.set_default_latency(0);
  kdc::KdcClient client = world_.kdc_client("alice");
  auto tgt = client.authenticate(8 * util::kHour);
  ASSERT_TRUE(tgt.is_ok()) << tgt.status();
  auto creds =
      client.get_ticket(tgt.value(), "file-server", 8 * util::kHour);
  ASSERT_TRUE(creds.is_ok()) << creds.status();

  const core::ProxyVerifier verifier = make_verifier(4);
  const core::Proxy pk = pk_chain(2, util::kHour);
  ASSERT_TRUE(verifier.verify_chain(pk.chain, world_.clock.now()).is_ok());
  // A stream of distinct Kerberos chains, each a miss that costs an AEAD
  // open and a MAC, pushes far more than the capacity through the cache.
  for (int i = 0; i < 30; ++i) {
    const core::Proxy krb = core::grant_krb_proxy(
        client, creds.value(), one_quota(static_cast<std::uint64_t>(i)),
        world_.clock.now());
    ASSERT_TRUE(verifier.verify_chain(krb.chain, world_.clock.now()).is_ok());
  }
  EXPECT_EQ(verifier.cache_stats().evictions, 27u);

  // The chain whose miss costs two Ed25519 verifies is still warm.
  const std::uint64_t hits = verifier.cache_stats().hits;
  const std::uint64_t before = ed25519_verifies();
  ASSERT_TRUE(verifier.verify_chain(pk.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().hits, hits + 1);
  EXPECT_EQ(ed25519_verifies(), before);
}

TEST_F(VerifyCacheTest, AbandonedHotEntryAgesOut) {
  const core::ProxyVerifier verifier = make_verifier(4);
  const core::Proxy hot = pk_chain(1, util::kHour);
  for (int i = 0; i <= 1000; ++i) {
    ASSERT_TRUE(verifier.verify_chain(hot.chain, world_.clock.now()).is_ok());
  }
  EXPECT_EQ(verifier.cache_stats().hits, 1000u);

  // Never presented again: fresh chains of the same cost raise L until the
  // hot entry's capped priority is the lowest.
  for (int i = 0; i < 200; ++i) {
    const core::Proxy fresh = pk_chain(1, util::kHour);
    ASSERT_TRUE(
        verifier.verify_chain(fresh.chain, world_.clock.now()).is_ok());
  }
  const std::uint64_t misses = verifier.cache_stats().misses;
  ASSERT_TRUE(verifier.verify_chain(hot.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().misses, misses + 1);
}

TEST_F(VerifyCacheTest, SymmetricChainWarmHit) {
  world_.net.set_default_latency(0);
  kdc::KdcClient client = world_.kdc_client("alice");
  auto tgt = client.authenticate(8 * util::kHour);
  ASSERT_TRUE(tgt.is_ok()) << tgt.status();
  auto creds =
      client.get_ticket(tgt.value(), "file-server", 8 * util::kHour);
  ASSERT_TRUE(creds.is_ok()) << creds.status();
  const core::Proxy proxy = core::grant_krb_proxy(
      client, creds.value(), one_quota(7), world_.clock.now());

  const core::ProxyVerifier verifier = make_verifier(1024);
  auto first = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(first.is_ok()) << first.status();
  auto second = verifier.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_TRUE(second.is_ok()) << second.status();
  EXPECT_EQ(verifier.cache_stats().hits, 1u);
  EXPECT_EQ(first.value().grantor, second.value().grantor);
}

TEST_F(VerifyCacheTest, ClearCacheDropsEntries) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  core::ProxyVerifier verifier = make_verifier(1024);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  verifier.clear_cache();
  EXPECT_EQ(verifier.cache_stats().size, 0u);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().misses, 2u);
}

TEST_F(VerifyCacheTest, DisabledCacheReportsZeroStats) {
  const core::Proxy proxy = pk_chain(2, util::kHour);
  const core::ProxyVerifier verifier = make_verifier(0);
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  const core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
}

// --- Revocation epochs: warm entries must not outlive ground truth ---

TEST_F(VerifyCacheTest, RevocationBumpDropsOnlyAffectedEntries) {
  world_.add_principal("carol");
  const core::Proxy from_alice = pk_chain(2, util::kHour);
  const core::Proxy from_carol =
      core::grant_pk_proxy("carol", world_.principal("carol").identity,
                           one_quota(5), world_.clock.now(), util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);

  // Warm both grantors' entries.
  ASSERT_TRUE(
      verifier.verify_chain(from_alice.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(
      verifier.verify_chain(from_carol.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().size, 2u);

  world_.revocation.bump("alice");

  // Alice's entry is dropped (stale epoch) and re-verified in full.  A
  // bare bump revokes nothing by itself, so the fresh verify still
  // succeeds and re-caches under the current epoch.
  auto realice = verifier.verify_chain(from_alice.chain, world_.clock.now());
  ASSERT_TRUE(realice.is_ok()) << realice.status();
  core::ChainCacheStats stats = verifier.cache_stats();
  EXPECT_EQ(stats.revocation_stale_drops, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Carol's entry survived the targeted invalidation: a hit, not a drop.
  ASSERT_TRUE(
      verifier.verify_chain(from_carol.chain, world_.clock.now()).is_ok());
  stats = verifier.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.revocation_stale_drops, 1u);

  // And the refreshed alice entry hits again on the next presentation.
  ASSERT_TRUE(
      verifier.verify_chain(from_alice.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().hits, 2u);
}

TEST_F(VerifyCacheTest, RevokedGrantorRejectedDespiteWarmCache) {
  const core::Proxy proxy = pk_chain(3, util::kHour);
  // TTL and capacity deliberately generous: the registry, not the TTL,
  // must be what unseats the warm entry.
  const core::ProxyVerifier cached =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);
  const core::ProxyVerifier uncached =
      make_verifier(0, util::kHour, /*with_revocation=*/true);

  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(cached.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(cached.cache_stats().hits, 1u);

  world_.clock.advance(util::kMinute);
  world_.revocation.revoke_grants_before("alice", world_.clock.now());

  // The very next presentation fails — warm cache included — and the
  // cached verifier's outcome is byte-identical to the uncached one's.
  auto with_cache = cached.verify_chain(proxy.chain, world_.clock.now());
  auto without = uncached.verify_chain(proxy.chain, world_.clock.now());
  ASSERT_FALSE(with_cache.is_ok());
  ASSERT_FALSE(without.is_ok());
  EXPECT_EQ(with_cache.status().code(), util::ErrorCode::kRevoked);
  EXPECT_EQ(with_cache.status().to_string(), without.status().to_string());
  EXPECT_EQ(cached.cache_stats().revocation_stale_drops, 1u);
  // The failed re-verification must not be re-cached.
  EXPECT_EQ(cached.cache_stats().size, 0u);
}

TEST_F(VerifyCacheTest, CertRevocationKillsOneChainNotTheGrantor) {
  const core::Proxy narrow = pk_chain(1, util::kHour);
  const core::Proxy other = pk_chain(1, util::kHour);
  const core::ProxyVerifier verifier =
      make_verifier(1024, util::kHour, /*with_revocation=*/true);
  ASSERT_TRUE(
      verifier.verify_chain(narrow.chain, world_.clock.now()).is_ok());
  ASSERT_TRUE(verifier.verify_chain(other.chain, world_.clock.now()).is_ok());

  world_.revocation.revoke_cert(
      "alice", core::revocation_id_of(narrow.chain.certs[0]));

  auto revoked = verifier.verify_chain(narrow.chain, world_.clock.now());
  EXPECT_EQ(revoked.status().code(), util::ErrorCode::kRevoked);
  // The sibling grant re-verifies in full (same grantor ⇒ its entry also
  // went stale) but remains valid.
  auto alive = verifier.verify_chain(other.chain, world_.clock.now());
  ASSERT_TRUE(alive.is_ok()) << alive.status();
  EXPECT_EQ(verifier.cache_stats().revocation_stale_drops, 2u);
}

/// Resolves through `inner`, and the first time it is asked for `trigger`
/// revokes every grant `victim` made before `cutoff` — a revocation that
/// lands in the middle of a full verification.
class RevokingResolver final : public core::KeyResolver {
 public:
  RevokingResolver(const core::KeyResolver& inner,
                   core::RevocationRegistry& registry, PrincipalName trigger,
                   PrincipalName victim, util::TimePoint cutoff)
      : inner_(inner),
        registry_(registry),
        trigger_(std::move(trigger)),
        victim_(std::move(victim)),
        cutoff_(cutoff) {}

  util::Result<crypto::VerifyKey> resolve(
      const PrincipalName& name) const override {
    if (name == trigger_ && !fired_) {
      fired_ = true;
      registry_.revoke_grants_before(victim_, cutoff_);
    }
    return inner_.resolve(name);
  }

 private:
  const core::KeyResolver& inner_;
  core::RevocationRegistry& registry_;
  PrincipalName trigger_;
  PrincipalName victim_;
  util::TimePoint cutoff_;
  mutable bool fired_ = false;
};

TEST_F(VerifyCacheTest, RevocationDuringAMissIsNotBakedIntoTheEntry) {
  // alice's proxy names bob, who extends it delegate-style: a full
  // verification checks alice's link, then resolves bob's key.  Revoking
  // alice right then lets this verification pass, but the outcome must not
  // be remembered under alice's new epoch.
  world_.add_principal("bob");
  core::RestrictionSet set;
  set.add(core::GranteeRestriction{{"bob"}, 1});
  const core::Proxy root =
      core::grant_pk_proxy("alice", world_.principal("alice").identity, set,
                           world_.clock.now(), util::kHour);
  const core::Proxy proxy =
      core::extend_delegate(root, "bob", world_.principal("bob").identity, {},
                            world_.clock.now(), util::kHour)
          .value();
  const RevokingResolver resolver(world_.resolver, world_.revocation, "bob",
                                  "alice", world_.clock.now() + 1);
  core::ProxyVerifier::Config vc =
      make_verifier(1024, util::kHour, /*with_revocation=*/true).config();
  vc.resolver = &resolver;
  const core::ProxyVerifier verifier(std::move(vc));

  ASSERT_TRUE(verifier.verify_chain(proxy.chain, world_.clock.now()).is_ok());
  EXPECT_EQ(verifier.cache_stats().size, 0u);
  EXPECT_EQ(verifier.verify_chain(proxy.chain, world_.clock.now()).code(),
            util::ErrorCode::kRevoked);
  EXPECT_EQ(verifier.cache_stats().hits, 0u);
}

// --- Identity certificates: the name server's signature is checked once ---
//
// A kDelegatePk proof carries the presenter's identity certificate.  A warm
// verifier may skip only the name server's signature over those exact
// bytes; the validity window, the proof's freshness and its signature run
// on every presentation, so every verdict matches the uncached verifier's.

class IdentityCertCacheTest : public VerifyCacheTest {
 protected:
  static constexpr std::size_t kCapacities[] = {1024, 0};

  /// Presents `cert` with a fresh proof by alice's identity key at `now`.
  util::Result<std::vector<PrincipalName>> present(
      const core::ProxyVerifier& verifier, const pki::IdentityCert& cert,
      util::TimePoint now) {
    const util::Bytes challenge = util::to_bytes("challenge");
    const util::Bytes digest = util::to_bytes("request");
    const core::PossessionProof proof = core::prove_delegate_pk(
        cert, world_.principal("alice").identity, challenge, "file-server",
        now, digest);
    return verifier.verify_identity(proof, challenge, digest, now);
  }

  /// Outcome as one comparable string: "ok:<who>" or the full status.
  std::string outcome(const core::ProxyVerifier& verifier,
                      const pki::IdentityCert& cert, util::TimePoint now) {
    auto who = present(verifier, cert, now);
    return who.is_ok() ? "ok:" + who.value().at(0) : who.status().to_string();
  }
};

TEST_F(IdentityCertCacheTest, WarmCertificateCostsOneVerifyNotTwo) {
  const pki::IdentityCert& cert = world_.principal("alice").cert;
  for (const std::size_t capacity : kCapacities) {
    const core::ProxyVerifier verifier = make_verifier(capacity);
    std::uint64_t before = ed25519_verifies();
    ASSERT_TRUE(present(verifier, cert, world_.clock.now()).is_ok());
    EXPECT_EQ(ed25519_verifies() - before, 2u) << "capacity=" << capacity;

    for (int repeat = 0; repeat < 3; ++repeat) {
      before = ed25519_verifies();
      auto who = present(verifier, cert, world_.clock.now());
      ASSERT_TRUE(who.is_ok()) << who.status();
      EXPECT_EQ(who.value(), std::vector<PrincipalName>{"alice"});
      // Only the proof signature remains once the certificate is warm.
      EXPECT_EQ(ed25519_verifies() - before, capacity > 0 ? 1u : 2u)
          << "capacity=" << capacity;
    }
    EXPECT_EQ(verifier.cache_stats().hits, capacity > 0 ? 3u : 0u);
    EXPECT_EQ(verifier.cache_stats().size, capacity > 0 ? 1u : 0u);
  }
}

TEST_F(IdentityCertCacheTest, ReusedIdentityCertificateOutlivesOneShotChains) {
  // A bank's traffic: every request carries the delegate's identity
  // certificate, beside a check chain that is presented once.
  const pki::IdentityCert& cert = world_.principal("alice").cert;
  const core::ProxyVerifier verifier = make_verifier(4);
  std::uint64_t presentation_verifies = 0;
  for (int round = 0; round < 100; ++round) {
    const std::uint64_t before = ed25519_verifies();
    auto who = present(verifier, cert, world_.clock.now());
    ASSERT_TRUE(who.is_ok()) << who.status();
    presentation_verifies += ed25519_verifies() - before;

    const core::Proxy check = pk_chain(3, util::kHour);
    ASSERT_TRUE(
        verifier.verify_chain(check.chain, world_.clock.now()).is_ok());
  }
  // One proof signature per round; the certificate's signature once.
  EXPECT_EQ(presentation_verifies, 100u + 1u);
}

TEST_F(IdentityCertCacheTest, TamperedCertificateGetsTheUncachedError) {
  world_.add_principal("mallory");
  const pki::IdentityCert& good = world_.principal("alice").cert;
  std::vector<pki::IdentityCert> tampered(4, good);
  tampered[0].subject = "mallory";
  tampered[1].public_key = world_.principal("mallory").identity.public_key();
  tampered[2].expires_at += util::kHour;
  tampered[3].signature[7] ^= 0x20;

  const core::ProxyVerifier cached = make_verifier(1024);
  const core::ProxyVerifier uncached = make_verifier(0);
  ASSERT_TRUE(present(cached, good, world_.clock.now()).is_ok());
  for (const pki::IdentityCert& cert : tampered) {
    EXPECT_EQ(outcome(cached, cert, world_.clock.now()),
              outcome(uncached, cert, world_.clock.now()));
    EXPECT_EQ(present(cached, cert, world_.clock.now()).status().code(),
              util::ErrorCode::kBadSignature);
  }
  // Every tampered certificate missed and none was remembered; the good
  // one is still warm.
  EXPECT_EQ(cached.cache_stats().hits, 0u);
  EXPECT_EQ(cached.cache_stats().size, 1u);
  ASSERT_TRUE(present(cached, good, world_.clock.now()).is_ok());
  EXPECT_EQ(cached.cache_stats().hits, 1u);
}

TEST_F(IdentityCertCacheTest, ValidityWindowIsCheckedOnEveryHit) {
  const pki::IdentityCert& cert = world_.principal("alice").cert;
  // A TTL longer than the certificate's lifetime, so the warm entry itself
  // is what meets both ends of the window.
  const util::Duration ttl = 24 * util::kHour;
  const core::ProxyVerifier cached = make_verifier(1024, ttl);
  const core::ProxyVerifier uncached = make_verifier(0, ttl);
  ASSERT_TRUE(present(cached, cert, cert.issued_at).is_ok());

  const struct {
    util::TimePoint at;
    bool valid;
  } cases[] = {
      {cert.issued_at - 1, false},  // not yet valid
      {cert.issued_at, true},
      {cert.expires_at, true},
      {cert.expires_at + 1, false},  // expired
  };
  for (const auto& c : cases) {
    const std::string expected = outcome(uncached, cert, c.at);
    EXPECT_EQ(outcome(cached, cert, c.at), expected) << "at=" << c.at;
    if (c.valid) {
      EXPECT_EQ(expected, "ok:alice") << "at=" << c.at;
    } else {
      EXPECT_EQ(present(cached, cert, c.at).status().code(),
                util::ErrorCode::kExpired)
          << "at=" << c.at;
    }
  }
  // issued_at - 1 (twice), issued_at and expires_at were served warm; the
  // first presentation past expires_at dropped the entry.
  EXPECT_EQ(cached.cache_stats().hits, 4u);
  EXPECT_EQ(cached.cache_stats().expired_drops, 1u);
  EXPECT_EQ(cached.cache_stats().size, 0u);
}

TEST_F(IdentityCertCacheTest, CertificateUnderAnotherRootNeverHits) {
  // A second name server binds alice's very key under its own root.
  pki::NameServer rogue("rogue-name-server", world_.clock);
  rogue.register_key("alice", world_.principal("alice").identity.public_key());
  const pki::IdentityCert foreign = rogue.issue_cert("alice").value();
  const pki::IdentityCert& home = world_.principal("alice").cert;

  for (const std::size_t capacity : kCapacities) {
    const core::ProxyVerifier verifier = make_verifier(capacity);
    ASSERT_TRUE(present(verifier, home, world_.clock.now()).is_ok());
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(present(verifier, foreign, world_.clock.now()).status().code(),
                util::ErrorCode::kBadSignature)
          << "capacity=" << capacity;
    }
    EXPECT_EQ(verifier.cache_stats().hits, 0u);
  }

  // A verifier rooted at the rogue server accepts its certificate, but its
  // cache is its own: the home verifier's warm entry cannot vouch for it,
  // nor the other way round.
  core::ProxyVerifier::Config rc = make_verifier(1024).config();
  rc.pk_root = rogue.root_key();
  const core::ProxyVerifier rogue_verifier(std::move(rc));
  const core::ProxyVerifier home_verifier = make_verifier(1024);
  ASSERT_TRUE(present(home_verifier, home, world_.clock.now()).is_ok());
  ASSERT_TRUE(present(rogue_verifier, foreign, world_.clock.now()).is_ok());
  EXPECT_EQ(present(rogue_verifier, home, world_.clock.now()).status().code(),
            util::ErrorCode::kBadSignature);
  EXPECT_EQ(present(home_verifier, foreign, world_.clock.now()).status().code(),
            util::ErrorCode::kBadSignature);
  EXPECT_EQ(home_verifier.cache_stats().hits, 0u);
  EXPECT_EQ(rogue_verifier.cache_stats().hits, 0u);
}

TEST_F(IdentityCertCacheTest, KeyRotationAtTheNameServerDropsTheEntry) {
  const pki::IdentityCert cert = world_.principal("alice").cert;
  for (const std::size_t capacity : kCapacities) {
    const core::ProxyVerifier verifier =
        make_verifier(capacity, util::kHour, /*with_revocation=*/true);
    const core::ProxyVerifier reference =
        make_verifier(0, util::kHour, /*with_revocation=*/true);
    ASSERT_TRUE(present(verifier, cert, world_.clock.now()).is_ok());

    // Rebinding alice bumps her epoch.  The old certificate is not
    // revocation-checked, so full verification still accepts it; the warm
    // entry must not answer for it either way.
    world_.name_server.register_key(
        "alice", crypto::SigningKeyPair::generate().public_key());

    std::uint64_t before = ed25519_verifies();
    EXPECT_EQ(outcome(verifier, cert, world_.clock.now()),
              outcome(reference, cert, world_.clock.now()));
    // Both paths checked the name server's signature again.
    EXPECT_EQ(ed25519_verifies() - before, 4u) << "capacity=" << capacity;
    if (capacity > 0) {
      EXPECT_EQ(verifier.cache_stats().revocation_stale_drops, 1u);
      EXPECT_EQ(verifier.cache_stats().hits, 0u);
      // Re-remembered under the current epoch: the next one is warm.
      before = ed25519_verifies();
      ASSERT_TRUE(present(verifier, cert, world_.clock.now()).is_ok());
      EXPECT_EQ(ed25519_verifies() - before, 1u);
    }
  }
}

// --- End-server level: per-presentation checks still bite on cache hits ---

class VerifyCacheEndServerTest : public ::testing::Test {
 protected:
  VerifyCacheEndServerTest() {
    world_.add_principal("alice");
    world_.add_principal("bob");
    world_.add_principal("file-server");
  }

  std::unique_ptr<server::FileServer> make_server(std::size_t capacity) {
    server::EndServer::Config config =
        world_.end_server_config("file-server");
    config.verify_cache_capacity = capacity;
    auto server = std::make_unique<server::FileServer>(std::move(config));
    server->put_file("/doc", "contents");
    server->acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    return server;
  }

  core::Proxy alice_capability() {
    return authz::make_capability_pk(
        "alice", world_.principal("alice").identity, "file-server",
        {core::ObjectRights{"/doc", {"read"}}}, world_.clock.now(),
        util::kHour);
  }

  World world_;
};

TEST_F(VerifyCacheEndServerTest, ReplayedChallengeRejectedOnCacheHit) {
  auto server = make_server(1024);
  world_.net.attach("file-server", *server);
  const core::Proxy cap = alice_capability();
  server::AppClient bob(world_.net, world_.clock, "bob");

  // Warm the cache with a successful presentation.
  ASSERT_TRUE(
      bob.invoke_with_proxy("file-server", cap, "read", "/doc").is_ok());
  ASSERT_GE(server->verifier().cache_stats().size, 1u);

  // Replay an already-consumed challenge with the (cached) chain: the
  // single-use challenge check runs before and regardless of the cache.
  auto challenge = bob.get_challenge("file-server");
  ASSERT_TRUE(challenge.is_ok());
  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.challenge_id = challenge.value().id;
  req.credentials.push_back(core::PresentedCredential{
      cap.chain, core::prove_bearer(cap, challenge.value().nonce,
                                    "file-server", world_.clock.now(),
                                    req.digest())});
  auto first = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest,
                              wire::encode_to_bytes(req));
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(net::status_of(first.value()).is_ok());
  EXPECT_GE(server->verifier().cache_stats().hits, 1u);

  auto replayed = world_.net.rpc("bob", "file-server",
                                 net::MsgType::kAppRequest,
                                 wire::encode_to_bytes(req));
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kProtocolError);
}

TEST_F(VerifyCacheEndServerTest, TimestampProofReplayRejectedOnCacheHit) {
  auto server = make_server(1024);
  world_.net.attach("file-server", *server);
  const core::Proxy cap = alice_capability();

  server::AppRequestPayload req;
  req.operation = "read";
  req.object = "/doc";
  req.credentials.push_back(core::PresentedCredential{
      cap.chain, core::prove_bearer(cap, {}, "file-server",
                                    world_.clock.now(), req.digest())});
  const util::Bytes encoded = wire::encode_to_bytes(req);

  auto first = world_.net.rpc("bob", "file-server",
                              net::MsgType::kAppRequest, encoded);
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(net::status_of(first.value()).is_ok());

  // Byte-identical re-presentation: chain would hit the cache, but the
  // replay cache rejects the reused proof first.
  auto replayed = world_.net.rpc("bob", "file-server",
                                 net::MsgType::kAppRequest, encoded);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(net::status_of(replayed.value()).code(),
            util::ErrorCode::kReplay);
}

TEST_F(VerifyCacheEndServerTest, AcceptOnceSingleUseThroughCache) {
  // Identical scenario against a cached and an uncached server: an
  // accept-once credential works exactly once on both.
  for (const std::size_t capacity : {std::size_t{1024}, std::size_t{0}}) {
    World world;
    world.add_principal("alice");
    world.add_principal("bob");
    world.add_principal("file-server");
    server::EndServer::Config config = world.end_server_config("file-server");
    config.verify_cache_capacity = capacity;
    server::FileServer server(std::move(config));
    server.put_file("/doc", "contents");
    server.acl().add(authz::AclEntry{{"alice"}, {}, {}, {}});
    world.net.attach("file-server", server);

    core::RestrictionSet set;
    set.add(core::AuthorizedRestriction{
        {core::ObjectRights{"/doc", {"read"}}}});
    set.add(core::AcceptOnceRestriction{42});
    const core::Proxy proxy =
        core::grant_pk_proxy("alice", world.principal("alice").identity, set,
                             world.clock.now(), util::kHour);

    server::AppClient bob(world.net, world.clock, "bob");
    auto first = bob.invoke_with_proxy("file-server", proxy, "read", "/doc");
    ASSERT_TRUE(first.is_ok()) << "capacity=" << capacity << ": "
                               << first.status();
    // Fresh challenge and proof, same chain (cache hit when enabled): the
    // accept-once identifier is already burned.
    auto second = bob.invoke_with_proxy("file-server", proxy, "read", "/doc");
    ASSERT_FALSE(second.is_ok()) << "capacity=" << capacity;
    EXPECT_EQ(second.code(), util::ErrorCode::kReplay)
        << "capacity=" << capacity;
    if (capacity > 0) {
      EXPECT_GE(server.verifier().cache_stats().hits, 1u);
    }
  }
}

TEST_F(VerifyCacheEndServerTest, CacheOnOffDecisionParity) {
  // One scenario battery, two servers differing only in cache capacity;
  // every outcome must agree.
  auto cached = make_server(1024);
  auto uncached = make_server(0);
  // Distinct node names so both can live on one SimNet.
  world_.net.attach("file-server", *cached);

  const core::Proxy good = alice_capability();
  core::ProxyChain tampered_chain = good.chain;
  tampered_chain.certs[0].signature[0] ^= 0x80;

  const auto outcome = [&](server::EndServer& srv,
                           const core::ProxyChain& chain,
                           const Operation& op) {
    server::AppRequestPayload req;
    req.operation = op;
    req.object = "/doc";
    req.credentials.push_back(core::PresentedCredential{
        chain, core::prove_bearer(good, {}, "file-server",
                                  world_.clock.now(), req.digest())});
    net::Envelope env;
    env.from = "bob";
    env.to = "file-server";
    env.type = net::MsgType::kAppRequest;
    env.payload = wire::encode_to_bytes(req);
    return net::status_of(srv.handle(env)).code();
  };

  // Twice each so the second cached round goes through hits.
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(outcome(*cached, good.chain, "read"),
              outcome(*uncached, good.chain, "read"));
    EXPECT_EQ(outcome(*cached, tampered_chain, "read"),
              outcome(*uncached, tampered_chain, "read"));
    EXPECT_EQ(outcome(*cached, good.chain, "delete"),
              outcome(*uncached, good.chain, "delete"));
  }
  EXPECT_GE(cached->verifier().cache_stats().hits, 1u);
  EXPECT_EQ(uncached->verifier().cache_stats().hits, 0u);
}

}  // namespace
}  // namespace rproxy
