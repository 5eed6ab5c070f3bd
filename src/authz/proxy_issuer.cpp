#include "authz/proxy_issuer.hpp"

#include <algorithm>

#include "core/revocation_id.hpp"

namespace rproxy::authz {

ProxyIssuer::ProxyIssuer(Config config) : config_(std::move(config)) {
  if (config_.mode == core::ProxyMode::kSymmetric) {
    kdc_client_.emplace(*config_.net, *config_.clock, config_.self,
                        config_.own_key, config_.kdc);
  }
}

void ProxyIssuer::clear_ticket_cache() {
  std::lock_guard lock(cache_mutex_);
  tgt_.reset();
  ticket_cache_.clear();
}

util::Result<kdc::Credentials> ProxyIssuer::creds_for_(
    const PrincipalName& target, util::Duration lifetime) {
  const util::TimePoint now = config_.clock->now();
  // Leave headroom so a proxy minted from these credentials is not already
  // on the edge of expiry.
  const util::TimePoint needed_until = now + lifetime;

  // Cache checks hold the lock; the KDC exchanges do not (a network call
  // under a lock would serialize every concurrent grant and could deadlock
  // against the transport).  Racing misses fetch twice — harmless.
  std::optional<kdc::Credentials> tgt;
  {
    std::lock_guard lock(cache_mutex_);
    if (auto it = ticket_cache_.find(target);
        it != ticket_cache_.end() && it->second.expires_at >= needed_until) {
      return it->second;
    }
    if (tgt_.has_value() && tgt_->expires_at >= needed_until) {
      tgt = *tgt_;
    }
  }
  if (!tgt.has_value()) {
    RPROXY_ASSIGN_OR_RETURN(kdc::Credentials fresh,
                            kdc_client_->authenticate(8 * util::kHour));
    tgt = fresh;
    std::lock_guard lock(cache_mutex_);
    tgt_ = std::move(fresh);
  }
  RPROXY_ASSIGN_OR_RETURN(
      kdc::Credentials creds,
      kdc_client_->get_ticket(*tgt, target, lifetime));
  std::lock_guard lock(cache_mutex_);
  ticket_cache_[target] = creds;
  return creds;
}

util::Result<core::Proxy> ProxyIssuer::issue(
    const PrincipalName& target, core::RestrictionSet restrictions,
    util::Duration lifetime) {
  restrictions.add(core::IssuedForRestriction{{target}});

  // Captured before the restriction set is consumed by the mint: who this
  // grant names as delegates, for revoke_issued_to later.
  std::vector<PrincipalName> delegates;
  if (config_.revocation != nullptr) {
    for (const core::Restriction& r : restrictions.items()) {
      if (const auto* g = r.get_if<core::GranteeRestriction>()) {
        delegates.insert(delegates.end(), g->delegates.begin(),
                         g->delegates.end());
      }
    }
  }
  const util::TimePoint fallback_expiry = config_.clock->now() + lifetime;

  if (config_.mode == core::ProxyMode::kPublicKey) {
    if (!config_.identity_key.valid()) {
      return util::fail(util::ErrorCode::kInternal,
                        "issuer has no identity key for public-key proxies");
    }
    core::Proxy proxy = core::grant_pk_proxy(
        config_.self, config_.identity_key, std::move(restrictions),
        config_.clock->now(), lifetime);
    record_issued_(proxy, std::move(delegates), fallback_expiry);
    return proxy;
  }

  RPROXY_ASSIGN_OR_RETURN(kdc::Credentials creds,
                          creds_for_(target, lifetime));
  core::Proxy proxy = core::grant_krb_proxy(
      *kdc_client_, creds, std::move(restrictions), config_.clock->now());
  record_issued_(proxy, std::move(delegates), fallback_expiry);
  return proxy;
}

void ProxyIssuer::record_issued_(const core::Proxy& proxy,
                                 std::vector<PrincipalName> delegates,
                                 util::TimePoint fallback_expiry) {
  if (config_.revocation == nullptr) return;
  const std::optional<core::RevocationId> id =
      core::revocation_id_of_root(proxy.chain);
  if (!id.has_value()) return;
  IssuedRecord record;
  record.delegates = std::move(delegates);
  record.expires_at =
      proxy.expires_at > 0 ? proxy.expires_at : fallback_expiry;
  const util::TimePoint now = config_.clock->now();
  std::lock_guard lock(issued_mutex_);
  issued_.purge(now);
  issued_.put(*id, std::move(record));
}

std::size_t ProxyIssuer::revoke_issued_to(const PrincipalName& delegate,
                                          util::TimePoint now) {
  if (config_.revocation == nullptr) return 0;
  // Collect under the lock, revoke outside it: revoke_cert notifies
  // registry listeners (journal writers) and must not run under ours.
  std::vector<core::RevocationId> to_revoke;
  {
    std::lock_guard lock(issued_mutex_);
    issued_.erase_if([&](const core::RevocationId& id,
                         const IssuedRecord& record) {
      const bool live_for_delegate =
          record.expires_at >= now &&
          std::find(record.delegates.begin(), record.delegates.end(),
                    delegate) != record.delegates.end();
      if (live_for_delegate) to_revoke.push_back(id);
      return live_for_delegate;
    });
  }
  for (const core::RevocationId& id : to_revoke) {
    config_.revocation->revoke_cert(config_.self, id);
  }
  return to_revoke.size();
}

}  // namespace rproxy::authz
