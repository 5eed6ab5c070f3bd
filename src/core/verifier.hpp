// End-server verification engine.
//
// Given a presented chain, the verifier (a) validates every signature/MAC
// link-by-link, recovering the final proxy key, (b) accumulates the
// restriction sets of every certificate (additivity: the effective set is
// the union), and (c) checks the possession proof against the recovered
// key or the grantee's personal authentication.  All of this is OFFLINE —
// no message to any third party — which is the efficiency the paper claims
// over Sollins' cascaded authentication (§3.4).
#pragma once

#include <memory>

#include "core/presentation.hpp"

namespace rproxy::core {

class ChainVerifyCache;
class RevocationRegistry;

/// Counters of the verified-credential cache, chain and identity-certificate
/// entries together (zeros when the cache is disabled).
struct ChainCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries dropped on lookup because the chain expired or the reuse TTL
  /// lapsed — both fall through to full re-verification.
  std::uint64_t expired_drops = 0;
  /// Entries dropped on lookup because a grantor on the chain was revoked
  /// against (its revocation epoch moved past the one recorded at insert);
  /// the caller falls through to full re-verification.
  std::uint64_t revocation_stale_drops = 0;
  std::size_t size = 0;
};

/// Resolves principal names to identity verification keys (public-key
/// realization).  Typically backed by pki::NameServer::key_of or a cache of
/// name-server certificates.
class KeyResolver {
 public:
  virtual ~KeyResolver() = default;
  [[nodiscard]] virtual util::Result<crypto::VerifyKey> resolve(
      const PrincipalName& name) const = 0;
};

/// KeyResolver over a fixed in-memory map (tests, simple servers).
class MapKeyResolver final : public KeyResolver {
 public:
  void add(const PrincipalName& name, const crypto::VerifyKey& key) {
    keys_[name] = key;
  }
  [[nodiscard]] util::Result<crypto::VerifyKey> resolve(
      const PrincipalName& name) const override;

 private:
  std::map<PrincipalName, crypto::VerifyKey> keys_;
};

/// Outcome of a successful chain verification.
struct VerifiedProxy {
  /// Root grantor — the principal whose rights (as limited by the
  /// restrictions) become available.
  PrincipalName grantor;
  /// Union of every certificate's restrictions: the effective set.
  RestrictionSet effective_restrictions;
  /// Earliest expiry along the chain.
  util::TimePoint expires_at = 0;
  ProxyMode mode = ProxyMode::kPublicKey;
  /// Final proxy verification material (what a possession proof is checked
  /// against).
  crypto::VerifyKey pk_proxy_key;       ///< pk mode
  crypto::SymmetricKey sym_proxy_key;   ///< sym mode (unwrapped by us)
  /// Intermediates that identity-signed cascade links, in chain order — the
  /// audit trail of delegate-style cascading (§3.4).  These principals have
  /// vouched for the chain and count as satisfied grantees.
  std::vector<PrincipalName> audit_trail;
  /// Chain length (delegation hops).
  std::size_t chain_length = 0;
};

class ProxyVerifier {
 public:
  struct Config {
    /// This server's principal name.
    PrincipalName server_name;
    /// Long-term Kerberos key (required to accept symmetric chains).
    std::optional<crypto::SymmetricKey> server_key;
    /// Identity key resolver (required to accept public-key chains).
    const KeyResolver* resolver = nullptr;
    /// Name-server root key for verifying pk delegate identity certs.
    std::optional<crypto::VerifyKey> pk_root;
    /// Replay cache for delegate Kerberos authenticators; nullptr disables.
    kdc::ReplayCache* replay_cache = nullptr;
    /// Freshness window for possession proofs and authenticators.
    util::Duration max_skew = 2 * util::kMinute;
    /// Verified-credential cache: byte-identical chains skip signature,
    /// MAC and ticket re-verification, and a byte-identical pk identity
    /// certificate skips the name server's signature check.  Time
    /// validity, possession proofs, replay and accept-once checks, and
    /// restriction evaluation always re-run per presentation.  Chains and
    /// certificates share this many entries.  0 disables the cache (A/B in
    /// tests and benches).
    std::size_t verify_cache_capacity = 1024;
    /// Bounded reuse window for cached verifications.  With a
    /// RevocationRegistry attached this is defence in depth only —
    /// revocations invalidate warm entries immediately; the TTL caps reuse
    /// against events no registry ever hears about.
    util::Duration verify_cache_ttl = 5 * util::kMinute;
    /// Shared revocation registry (§3.1: grants are "revocable via the
    /// grantor's rights").  When set, (a) full verification rejects links
    /// whose grant has been revoked (kRevoked) and (b) warm cache entries
    /// for revoked-against grantors fall through to full verification on
    /// the very next presentation.  nullptr disables revocation checks.
    const RevocationRegistry* revocation = nullptr;
  };

  explicit ProxyVerifier(Config config);
  ~ProxyVerifier();
  ProxyVerifier(ProxyVerifier&&) noexcept;
  ProxyVerifier& operator=(ProxyVerifier&&) noexcept;

  /// Validates the chain and recovers the final proxy key.  Does NOT
  /// evaluate restrictions against a request (the caller does that with
  /// the returned effective set) and does NOT check possession.
  [[nodiscard]] util::Result<VerifiedProxy> verify_chain(
      const ProxyChain& chain, util::TimePoint now) const;

  /// Checks a possession proof against a verified chain.  On success
  /// returns the identities the presenter proved: empty for bearer proofs,
  /// the authenticated principal for delegate proofs.  The caller feeds
  /// these (plus the audit trail) into RequestContext::effective_identities.
  [[nodiscard]] util::Result<std::vector<PrincipalName>> verify_possession(
      const VerifiedProxy& verified, const PossessionProof& proof,
      util::BytesView challenge, util::BytesView request_digest,
      util::TimePoint now) const;

  /// Checks a standalone personal-authentication proof (no proxy involved —
  /// "local users might appear directly in the access-control-list",
  /// §3.5).  Only delegate-kind proofs qualify.  Returns the authenticated
  /// identities.
  [[nodiscard]] util::Result<std::vector<PrincipalName>> verify_identity(
      const PossessionProof& proof, util::BytesView challenge,
      util::BytesView request_digest, util::TimePoint now) const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Counters of the verified-credential cache; all-zero when disabled.
  [[nodiscard]] ChainCacheStats cache_stats() const;

  /// Drops every cached verification.  A blunt instrument kept for tests
  /// and operational resets; revocation no longer needs it — a registry
  /// event invalidates exactly the affected entries on their next lookup.
  void clear_cache();

 private:
  [[nodiscard]] util::Result<VerifiedProxy> verify_chain_uncached_(
      const ProxyChain& chain, util::TimePoint now) const;
  [[nodiscard]] util::Result<VerifiedProxy> verify_sym_chain_(
      const ProxyChain& chain, util::TimePoint now) const;
  [[nodiscard]] util::Result<VerifiedProxy> verify_pk_chain_(
      const ProxyChain& chain, util::TimePoint now) const;
  /// pki::verify_identity_cert under pk_root, with the signature check
  /// remembered in the cache.
  [[nodiscard]] util::Status verify_identity_cert_(
      const pki::IdentityCert& cert, util::TimePoint now) const;

  Config config_;
  /// Internally synchronized; mutable because a cache probe does not change
  /// the observable verification outcome.
  mutable std::unique_ptr<ChainVerifyCache> cache_;
};

}  // namespace rproxy::core
