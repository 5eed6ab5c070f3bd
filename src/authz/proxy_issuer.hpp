// Proxy minting shared by the authorization, group, and accounting servers.
//
// All three "accept proxies and issue proxies" (§7.9).  A ProxyIssuer owns
// the machinery to mint a proxy whose rights flow from the issuing server:
// in the conventional realization it keeps a TGT and a per-end-server
// ticket cache and mints Kerberos proxies (§6.2); in the public-key
// realization it signs certificates with the server's identity key (Fig 6).
#pragma once

#include <map>
#include <mutex>
#include <vector>

#include "core/proxy.hpp"
#include "core/revocation.hpp"
#include "util/expiring_table.hpp"

namespace rproxy::authz {

/// Seal purpose for returning a proxy secret under a session key — the
/// "{Kproxy}Ksession" of Fig 3.
inline constexpr std::string_view kProxySecretSealPurpose =
    "authz:proxy-secret";

class ProxyIssuer {
 public:
  struct Config {
    PrincipalName self;
    core::ProxyMode mode = core::ProxyMode::kSymmetric;
    /// Conventional realization: how to reach the KDC.
    net::SimNet* net = nullptr;
    const util::Clock* clock = nullptr;
    crypto::SymmetricKey own_key;  ///< long-term key shared with the KDC
    PrincipalName kdc;
    /// Public-key realization: the issuer's identity key.
    crypto::SigningKeyPair identity_key;
    /// Shared revocation registry.  When set, every issued proxy's root
    /// grant is logged (by RevocationId) so revoke_issued_to can later
    /// kill specific already-issued proxies.  nullptr disables logging.
    core::RevocationRegistry* revocation = nullptr;
  };

  explicit ProxyIssuer(Config config);

  /// Mints a proxy granting (a restriction of) the issuer's rights, usable
  /// at `target`.  An issued-for restriction naming `target` is always
  /// added (§7.3) on top of `restrictions`.
  [[nodiscard]] util::Result<core::Proxy> issue(
      const PrincipalName& target, core::RestrictionSet restrictions,
      util::Duration lifetime);

  [[nodiscard]] const PrincipalName& self() const { return config_.self; }
  [[nodiscard]] core::ProxyMode mode() const { return config_.mode; }

  /// Drops cached tickets (forces fresh KDC exchanges; tests use this to
  /// observe message counts).
  void clear_ticket_cache();

  /// Revokes every still-live proxy this issuer granted to `delegate`
  /// (named in a grantee restriction at issue time): each one's root grant
  /// goes onto the registry's certificate revocation list, so its NEXT
  /// presentation — and that of every chain derived from it — is rejected
  /// with kRevoked.  Returns the number of grants revoked.  Requires
  /// Config::revocation.
  std::size_t revoke_issued_to(const PrincipalName& delegate,
                               util::TimePoint now);

 private:
  /// One issued grant the issuer can later revoke, keyed by its root's
  /// RevocationId (SHA-256 over the signed root, so unique per grant).
  struct IssuedRecord {
    std::vector<PrincipalName> delegates;  ///< named grantees, if any
    util::TimePoint expires_at = 0;
  };

  /// Logs a freshly minted proxy for later targeted revocation.
  void record_issued_(const core::Proxy& proxy,
                      std::vector<PrincipalName> delegates,
                      util::TimePoint fallback_expiry);

  [[nodiscard]] util::Result<kdc::Credentials> creds_for_(
      const PrincipalName& target, util::Duration lifetime);

  Config config_;
  std::optional<kdc::KdcClient> kdc_client_;
  /// Guards tgt_ and ticket_cache_.  Released across the KDC exchanges —
  /// concurrent misses may fetch the same ticket twice (benign; last write
  /// wins) but never hold a lock while on the network.
  mutable std::mutex cache_mutex_;
  std::optional<kdc::Credentials> tgt_;
  std::map<PrincipalName, kdc::Credentials> ticket_cache_;
  /// Guards issued_.  Separate from cache_mutex_ — revocation never touches
  /// the ticket caches.  Expired grants need no revocation (their
  /// presentation already fails with kExpired), so each issuance purges
  /// them and the log stays proportional to LIVE grants.
  mutable std::mutex issued_mutex_;
  util::ExpiringTable<core::RevocationId, IssuedRecord> issued_;
};

}  // namespace rproxy::authz
