// Verified-credential cache: the check-once/reuse-many fast path.
//
// Chain verification is a pure function of the presented octets and the
// verifier's long-term configuration: signatures, cascade MACs, ticket
// decryption and the structural rules depend on nothing else.  Re-verifying
// a byte-identical chain therefore re-derives a value already in hand.  The
// same holds for the name server's signature on a pk delegate's identity
// certificate (§6.1), which the same cache remembers in its own entries.
//
// What the cache may elide is exactly that pure work, nothing else.  All
// per-presentation checks stay OUTSIDE and run on every request: possession
// proofs, challenge single-use, replay caches, accept-once identifiers,
// restriction evaluation against the live request, and an identity
// certificate's validity window.
//
// Entries stay honest about expiry and revocation:
//  * a hit past the chain's own earliest expiry (the certificate's expiry,
//    for an identity entry) is dropped, and the caller falls through to
//    full verification, which reports the same kExpired diagnosis the
//    uncached path always gave;
//  * a bounded reuse TTL caps how long any outcome may be served even if
//    no revocation signal ever arrives (defence in depth, not the primary
//    revocation mechanism);
//  * when a RevocationRegistry is attached, every entry records the
//    revocation epoch of each grantor on its chain (of the subject, for an
//    identity certificate) at insert time.  A lookup first compares the
//    registry's process-wide version against the version recorded on the
//    entry — one atomic load when nothing has been revoked anywhere
//    since — and re-checks the per-grantor epochs when it differs.  A
//    stale entry is dropped (counted in revocation_stale_drops) and the
//    caller falls through to full verification, so a revocation takes
//    effect on the very NEXT presentation, not the next TTL boundary;
//    entries for untouched grantors stay warm.  An outcome whose
//    verification overlapped a revocation event is not stored at all.
//
// Eviction is GreedyDual-Size-Frequency (Cao & Irani 1997; Cherkasova
// 1998).  An entry's priority is L + min(uses, kMaxUses) x cost, where
// `cost` is the verification work a hit skips and L is the priority of the
// last entry evicted; the entry with the lowest priority goes first, the
// least recently used among equals.  A public-key chain that misses costs
// an Ed25519 verify per link, a Kerberos chain an AEAD open and a MAC, so
// an order blind to cost spends the slots on cheap chains.  The frequency
// term keeps an identity certificate that a bank sees on every request
// ahead of the one-shot check chains beside it, and its cap lets an entry
// that stops being presented age out as L rises.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/revocation.hpp"
#include "core/verifier.hpp"

namespace rproxy::core {

class ChainVerifyCache {
 public:
  /// What one Ed25519 verify costs, in units of one symmetric link (an
  /// AEAD open and a MAC).  A miss costs 1 + links for a Kerberos chain,
  /// 1 + kSignatureCost x links for a public-key chain and
  /// 1 + kSignatureCost for an identity certificate.
  static constexpr std::uint64_t kSignatureCost = 16;
  /// Uses counted towards an entry's priority; more add nothing, so an
  /// entry that is no longer presented ages out.
  static constexpr std::uint64_t kMaxUses = 16;

  /// `capacity` bounds the number of cached entries (GreedyDual-Size-
  /// Frequency eviction, above);
  /// `ttl` bounds how long one verification outcome may be reused;
  /// `revocation` (optional) makes warm entries observe revocation events
  /// immediately instead of waiting out the TTL.
  ChainVerifyCache(std::size_t capacity, util::Duration ttl,
                   const RevocationRegistry* revocation = nullptr);

  /// Cache key: SHA-256 over the chain's deterministic wire encoding —
  /// mode, the Kerberos root (ticket + sealed authenticator) when present,
  /// and every link including its signature.  One flipped byte anywhere in
  /// the presented chain yields a different key.
  [[nodiscard]] static crypto::Digest key_of(const ProxyChain& chain);

  /// Returns the cached verification outcome, or nullopt when the caller
  /// must verify in full: unknown key, entry past the chain expiry or the
  /// reuse TTL (dropped), or a pk link dated further in the future than
  /// `max_skew` allows at `now` (kept; it may become valid later).
  [[nodiscard]] std::optional<VerifiedProxy> lookup(const crypto::Digest& key,
                                                    util::TimePoint now,
                                                    util::Duration max_skew);

  /// The attached registry's version (0 without one).  Read it before the
  /// full verification whose outcome goes to insert() or insert_identity():
  /// an outcome reached while a revocation event landed is not remembered,
  /// since it may predate the event that the entry's epochs would record.
  [[nodiscard]] std::uint64_t revocation_version() const;

  /// Remembers a successful verification of `chain`, made after
  /// revocation_version() returned `verified_at`.
  void insert(const crypto::Digest& key, const ProxyChain& chain,
              const VerifiedProxy& verified, util::TimePoint now,
              std::uint64_t verified_at);

  /// Identity-certificate key: SHA-256 over a tag, then the certificate's
  /// wire encoding, signature included.  The tag's first octet is zero;
  /// a verifiable chain's encoding starts with its mode (1 or 2), so the
  /// two key spaces never meet.
  [[nodiscard]] static crypto::Digest identity_key_of(
      const pki::IdentityCert& cert);

  /// True when this cache holds a live entry for the certificate keyed
  /// `key`: its name-server signature verified under the owning verifier's
  /// pk_root.  False (verify in full) for an unknown key, or an entry past
  /// the certificate's expiry, the reuse TTL or its subject's revocation
  /// epoch (dropped).  Says nothing about the validity window at `now`.
  [[nodiscard]] bool lookup_identity(const crypto::Digest& key,
                                     util::TimePoint now);

  /// Remembers a successful verification of `cert`, made after
  /// revocation_version() returned `verified_at`.
  void insert_identity(const crypto::Digest& key,
                       const pki::IdentityCert& cert, util::TimePoint now,
                       std::uint64_t verified_at);

  void clear();

  [[nodiscard]] ChainCacheStats stats() const;

 private:
  struct DigestHash {
    std::size_t operator()(const crypto::Digest& d) const {
      // SHA-256 output is uniform; the first eight octets are a fine hash.
      std::size_t h = 0;
      for (int i = 0; i < 8; ++i) h = (h << 8) | d[static_cast<size_t>(i)];
      return h;
    }
  };
  /// Eviction order: lowest priority first, then the least recently filed.
  struct Rank {
    std::uint64_t priority = 0;
    std::uint64_t filed = 0;
    auto operator<=>(const Rank&) const = default;
  };
  using Order = std::map<Rank, crypto::Digest>;

  struct Entry {
    /// The verified chain; nullopt in an identity-certificate entry, whose
    /// presence alone records that the signature verified.
    std::optional<VerifiedProxy> chain;
    /// The chain's earliest expiry or the certificate's expires_at.  A
    /// lookup past it drops the entry, so the caller's full verification
    /// reports the uncached path's exact kExpired diagnosis.
    util::TimePoint expires_at = 0;
    /// Latest issuance instant along the chain — re-checked against
    /// now + max_skew on every pk-mode hit, mirroring the uncached
    /// issued-in-the-future rejection.
    util::TimePoint max_issued_at = 0;
    /// Insertion time + ttl.
    util::TimePoint cached_until = 0;
    /// Revocation epoch of every grantor on the chain (root grantor plus
    /// named intermediates), or of the certificate's subject, as of insert
    /// time, and the registry version current when they were last
    /// confirmed.  A lookup whose version matches the registry skips the
    /// epoch walk entirely.
    std::vector<std::pair<PrincipalName, std::uint64_t>> grantor_epochs;
    std::uint64_t revocation_version = 0;
    /// Verification work a hit skips, in symmetric links.
    std::uint64_t cost = 0;
    /// Presentations served or stored, capped at kMaxUses.
    std::uint64_t uses = 0;
    Order::iterator rank;
  };

  /// The entry under `key`, or nullptr when there is none or it was just
  /// dropped for expiry, TTL or a revocation epoch.  Counts no hit or miss
  /// and leaves the eviction order alone.  mutex_ must be held.
  [[nodiscard]] Entry* find_live_(const crypto::Digest& key,
                                  util::TimePoint now);
  /// Counts one more use of `entry` and re-files it at its new priority,
  /// reusing its order node.  mutex_ must be held.
  void refile_(Entry& entry);
  /// Inserts or refreshes the entry under `key`, whose full verification
  /// costs `cost`, records the epochs of `grantors`, and evicts to make room;
  /// the caller fills in the rest.  nullptr, and nothing stored, when the
  /// registry moved past `verified_at`.  mutex_ must be held.
  [[nodiscard]] Entry* put_(const crypto::Digest& key, std::uint64_t cost,
                            util::TimePoint now,
                            const std::vector<PrincipalName>& grantors,
                            std::uint64_t verified_at);

  std::size_t capacity_;
  util::Duration ttl_;
  const RevocationRegistry* revocation_;
  mutable std::mutex mutex_;
  std::unordered_map<crypto::Digest, Entry, DigestHash> map_;
  Order order_;  ///< begin() = next victim
  /// GreedyDual's L: the priority of the last entry evicted.
  std::uint64_t floor_ = 0;
  /// Filing counter; breaks priority ties in favour of the newer filing.
  std::uint64_t filed_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expired_drops_ = 0;
  std::uint64_t revocation_stale_drops_ = 0;
};

}  // namespace rproxy::core
