#include "core/verify_cache.hpp"

#include <algorithm>

#include "crypto/digest.hpp"

namespace rproxy::core {

ChainVerifyCache::ChainVerifyCache(std::size_t capacity, util::Duration ttl,
                                   const RevocationRegistry* revocation)
    : capacity_(capacity), ttl_(ttl), revocation_(revocation) {}

crypto::Digest ChainVerifyCache::key_of(const ProxyChain& chain) {
  wire::Encoder enc;
  chain.encode(enc);
  return crypto::sha256(enc.view());
}

crypto::Digest ChainVerifyCache::identity_key_of(
    const pki::IdentityCert& cert) {
  wire::Encoder enc;
  enc.str("identity-cert");
  cert.encode(enc);
  return crypto::sha256(enc.view());
}

ChainVerifyCache::Entry* ChainVerifyCache::find_live_(
    const crypto::Digest& key, util::TimePoint now) {
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  Entry& entry = it->second;
  if (now > entry.expires_at || now >= entry.cached_until) {
    // Past the credential's own expiry (full verification will reproduce
    // the exact kExpired diagnosis) or past the reuse TTL (re-derive so a
    // revoked grantor key stops being honoured).  Either way the entry is
    // dead for all future `now`s.
    order_.erase(entry.rank);
    map_.erase(it);
    expired_drops_ += 1;
    return nullptr;
  }
  if (revocation_ != nullptr) {
    // One atomic load in the common case: nothing anywhere has been
    // revoked since this entry's epochs were last confirmed.
    const std::uint64_t version = revocation_->version();
    if (version != entry.revocation_version) {
      if (!revocation_->epochs_current(entry.grantor_epochs)) {
        // A principal THIS entry relied on was revoked against: drop the
        // entry and fall through to full verification, which re-derives
        // ground truth.  Entries for untouched grantors keep their warmth.
        order_.erase(entry.rank);
        map_.erase(it);
        revocation_stale_drops_ += 1;
        return nullptr;
      }
      // Revocations elsewhere don't concern this entry; remember that so
      // the next lookup is back to the single atomic load.
      entry.revocation_version = version;
    }
  }
  return &entry;
}

void ChainVerifyCache::refile_(Entry& entry) {
  entry.uses = std::min(entry.uses + 1, kMaxUses);
  Order::node_type node = order_.extract(entry.rank);
  node.key() = Rank{floor_ + entry.uses * entry.cost, ++filed_};
  entry.rank = order_.insert(std::move(node)).position;
}

std::optional<VerifiedProxy> ChainVerifyCache::lookup(
    const crypto::Digest& key, util::TimePoint now, util::Duration max_skew) {
  std::lock_guard lock(mutex_);
  Entry* entry = find_live_(key, now);
  // The uncached path rejects future-dated pk links: such an entry is not
  // served, but stays, since it becomes valid once the clock catches up.
  if (entry == nullptr || !entry->chain.has_value() ||
      (entry->chain->mode == ProxyMode::kPublicKey &&
       entry->max_issued_at > now + max_skew)) {
    misses_ += 1;
    return std::nullopt;
  }
  refile_(*entry);
  hits_ += 1;
  return entry->chain;
}

bool ChainVerifyCache::lookup_identity(const crypto::Digest& key,
                                       util::TimePoint now) {
  std::lock_guard lock(mutex_);
  Entry* entry = find_live_(key, now);
  if (entry == nullptr || entry->chain.has_value()) {
    misses_ += 1;
    return false;
  }
  refile_(*entry);
  hits_ += 1;
  return true;
}

std::uint64_t ChainVerifyCache::revocation_version() const {
  return revocation_ != nullptr ? revocation_->version() : 0;
}

void ChainVerifyCache::insert(const crypto::Digest& key,
                              const ProxyChain& chain,
                              const VerifiedProxy& verified,
                              util::TimePoint now, std::uint64_t verified_at) {
  if (capacity_ == 0) return;
  util::TimePoint max_issued_at = 0;
  for (const ProxyCertificate& cert : chain.certs) {
    max_issued_at = std::max(max_issued_at, cert.issued_at);
  }
  // Every NAMED principal whose standing the verification relied on: the
  // root grantor plus intermediate identities.  Anonymous bearer links
  // have no name to track; revoking one goes through the root grantor's
  // certificate list, which bumps the root's epoch.
  std::vector<PrincipalName> grantors;
  grantors.push_back(verified.grantor);
  for (const PrincipalName& name : verified.audit_trail) {
    if (name != verified.grantor) grantors.push_back(name);
  }
  // A hit skips one check per link: an Ed25519 verify on a public-key
  // chain; the ticket, then a cascade link's AEAD open and MAC, on a
  // Kerberos chain.
  const std::uint64_t per_link =
      chain.mode == ProxyMode::kPublicKey ? kSignatureCost : 1;
  const std::uint64_t cost = 1 + per_link * chain.length();

  std::lock_guard lock(mutex_);
  Entry* entry = put_(key, cost, now, grantors, verified_at);
  if (entry == nullptr) return;
  entry->chain = verified;
  entry->expires_at = verified.expires_at;
  entry->max_issued_at = max_issued_at;
}

void ChainVerifyCache::insert_identity(const crypto::Digest& key,
                                       const pki::IdentityCert& cert,
                                       util::TimePoint now,
                                       std::uint64_t verified_at) {
  if (capacity_ == 0) return;
  // The subject's epoch moves when the name server rebinds or drops its
  // key, so that event sends the next presentation down the full path.
  const std::vector<PrincipalName> grantors{cert.subject};

  std::lock_guard lock(mutex_);
  Entry* entry = put_(key, 1 + kSignatureCost, now, grantors, verified_at);
  if (entry == nullptr) return;
  entry->chain.reset();
  entry->expires_at = cert.expires_at;
  entry->max_issued_at = 0;
}

ChainVerifyCache::Entry* ChainVerifyCache::put_(
    const crypto::Digest& key, std::uint64_t cost, util::TimePoint now,
    const std::vector<PrincipalName>& grantors, std::uint64_t verified_at) {
  std::vector<std::pair<PrincipalName, std::uint64_t>> epochs;
  std::uint64_t version = 0;
  if (revocation_ != nullptr) {
    version = revocation_->snapshot_epochs(grantors, epochs);
    // A revocation event landed during the caller's verification, which
    // may have passed its link checks just before it: recording today's
    // epochs would let the entry outlive that revocation.
    if (version != verified_at) return nullptr;
  }
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Stored again (two misses of one chain raced, or a future-dated pk
    // chain was re-verified): one more use of the same entry.
    refile_(it->second);
  } else {
    // Evict before filing, so the victims' priorities raise L before the
    // newcomer's is taken from it and the newcomer itself is never one.
    while (map_.size() >= capacity_) {
      const Order::iterator victim = order_.begin();
      floor_ = victim->first.priority;
      map_.erase(victim->second);
      order_.erase(victim);
      evictions_ += 1;
    }
    it = map_.try_emplace(key).first;
    it->second.cost = cost;
    it->second.uses = 1;
    it->second.rank =
        order_.emplace(Rank{floor_ + cost, ++filed_}, key).first;
  }
  Entry& entry = it->second;
  entry.cached_until = now + ttl_;
  entry.grantor_epochs = std::move(epochs);
  entry.revocation_version = version;
  return &entry;
}

void ChainVerifyCache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  order_.clear();
  floor_ = 0;
}

ChainCacheStats ChainVerifyCache::stats() const {
  std::lock_guard lock(mutex_);
  ChainCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.expired_drops = expired_drops_;
  s.revocation_stale_drops = revocation_stale_drops_;
  s.size = map_.size();
  return s;
}

}  // namespace rproxy::core
