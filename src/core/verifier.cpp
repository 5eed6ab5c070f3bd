#include "core/verifier.hpp"

#include <algorithm>

#include "core/revocation_id.hpp"
#include "core/verify_cache.hpp"

namespace rproxy::core {

using util::ErrorCode;

util::Result<crypto::VerifyKey> MapKeyResolver::resolve(
    const PrincipalName& name) const {
  auto it = keys_.find(name);
  if (it == keys_.end()) {
    return util::fail(ErrorCode::kNotFound,
                      "no identity key known for '" + name + "'");
  }
  return it->second;
}

ProxyVerifier::ProxyVerifier(Config config) : config_(std::move(config)) {
  if (config_.verify_cache_capacity > 0) {
    cache_ = std::make_unique<ChainVerifyCache>(config_.verify_cache_capacity,
                                                config_.verify_cache_ttl,
                                                config_.revocation);
  }
}

ProxyVerifier::~ProxyVerifier() = default;
ProxyVerifier::ProxyVerifier(ProxyVerifier&&) noexcept = default;
ProxyVerifier& ProxyVerifier::operator=(ProxyVerifier&&) noexcept = default;

ChainCacheStats ProxyVerifier::cache_stats() const {
  return cache_ ? cache_->stats() : ChainCacheStats{};
}

void ProxyVerifier::clear_cache() {
  if (cache_) cache_->clear();
}

util::Result<VerifiedProxy> ProxyVerifier::verify_chain(
    const ProxyChain& chain, util::TimePoint now) const {
  if (!cache_) return verify_chain_uncached_(chain, now);
  const crypto::Digest key = ChainVerifyCache::key_of(chain);
  if (std::optional<VerifiedProxy> hit =
          cache_->lookup(key, now, config_.max_skew)) {
    return std::move(*hit);
  }
  const std::uint64_t revocation_version = cache_->revocation_version();
  util::Result<VerifiedProxy> verified = verify_chain_uncached_(chain, now);
  // Only successful verifications are remembered: a rejection stays as
  // cheap or expensive as it was, and no attacker-chosen garbage occupies
  // cache slots.
  if (verified.is_ok()) {
    cache_->insert(key, chain, verified.value(), now, revocation_version);
  }
  return verified;
}

util::Status ProxyVerifier::verify_identity_cert_(
    const pki::IdentityCert& cert, util::TimePoint now) const {
  if (!cache_) return pki::verify_identity_cert(cert, *config_.pk_root, now);
  const crypto::Digest key = ChainVerifyCache::identity_key_of(cert);
  // A hit skips only the name server's signature over these exact bytes;
  // the validity window depends on `now` and runs on every presentation.
  if (cache_->lookup_identity(key, now)) {
    return pki::check_identity_cert_window(cert, now);
  }
  const std::uint64_t revocation_version = cache_->revocation_version();
  RPROXY_RETURN_IF_ERROR(
      pki::verify_identity_cert(cert, *config_.pk_root, now));
  cache_->insert_identity(key, cert, now, revocation_version);
  return util::Status::ok();
}

util::Result<VerifiedProxy> ProxyVerifier::verify_chain_uncached_(
    const ProxyChain& chain, util::TimePoint now) const {
  switch (chain.mode) {
    case ProxyMode::kSymmetric:
      return verify_sym_chain_(chain, now);
    case ProxyMode::kPublicKey:
      return verify_pk_chain_(chain, now);
  }
  return util::fail(ErrorCode::kParseError, "unknown proxy mode");
}

util::Result<VerifiedProxy> ProxyVerifier::verify_sym_chain_(
    const ProxyChain& chain, util::TimePoint now) const {
  if (!config_.server_key.has_value()) {
    return util::fail(ErrorCode::kProtocolError,
                      "this server accepts no symmetric proxies");
  }
  if (!chain.krb_root.has_value()) {
    return util::fail(ErrorCode::kParseError,
                      "symmetric chain lacks its Kerberos root");
  }

  // Root: the ticket+authenticator pair IS the proxy certificate (§6.2).
  // Unlike a personal AP exchange, the authenticator here is not fresh —
  // the proxy may have been granted long ago — so freshness and replay
  // protection come from the challenge-response presentation instead.
  RPROXY_ASSIGN_OR_RETURN(
      kdc::TicketBody ticket,
      kdc::open_ticket(chain.krb_root->ticket, *config_.server_key));
  if (ticket.expires_at < now) {
    return util::fail(ErrorCode::kExpired, "proxy ticket expired");
  }
  RPROXY_ASSIGN_OR_RETURN(
      kdc::AuthenticatorBody auth,
      kdc::open_authenticator(chain.krb_root->sealed_authenticator,
                              ticket.session_key));
  if (auth.client != ticket.client) {
    return util::fail(ErrorCode::kProtocolError,
                      "proxy authenticator/ticket client mismatch");
  }
  if (auth.timestamp < ticket.auth_time - config_.max_skew ||
      auth.timestamp > ticket.expires_at) {
    return util::fail(ErrorCode::kExpired,
                      "proxy authenticator outside ticket validity");
  }
  if (auth.subkey.size() != crypto::kSymmetricKeySize) {
    return util::fail(ErrorCode::kProtocolError,
                      "proxy authenticator carries no proxy key (subkey)");
  }

  // Revocation: the authenticator timestamp is the grant's mint instant
  // (the ticket may long outlive the grant).  This check cannot be elided —
  // after the grantor's KDC key rotates, the ticket still opens fine under
  // OUR key, so no cryptographic step above would fail.
  const RevocationRegistry* revocation = config_.revocation;
  const bool want_ids =
      revocation != nullptr && revocation->has_cert_revocations();
  if (revocation != nullptr) {
    RPROXY_RETURN_IF_ERROR(revocation->check_link(
        ticket.client, auth.timestamp,
        want_ids ? std::optional<RevocationId>(
                       revocation_id_of(*chain.krb_root))
                 : std::nullopt));
  }

  VerifiedProxy out;
  out.mode = ProxyMode::kSymmetric;
  out.grantor = ticket.client;
  out.expires_at = ticket.expires_at;
  out.chain_length = 1;

  RPROXY_ASSIGN_OR_RETURN(
      RestrictionSet ticket_rs,
      RestrictionSet::from_blobs(ticket.authorization_data));
  RPROXY_ASSIGN_OR_RETURN(
      RestrictionSet auth_rs,
      RestrictionSet::from_blobs(auth.authorization_data));
  out.effective_restrictions = ticket_rs.merged(auth_rs);

  crypto::SymmetricKey link_key =
      crypto::SymmetricKey::from_bytes(auth.subkey);

  // Cascade links (Fig 4): each is MACed under the previous proxy key and
  // seals the next proxy key inside.
  for (const ProxyCertificate& cert : chain.certs) {
    if (cert.mode != ProxyMode::kSymmetric ||
        cert.signer != SignerKind::kParentProxyKey) {
      return util::fail(ErrorCode::kProtocolError,
                        "symmetric cascade link has foreign mode/signer");
    }
    if (cert.expires_at < now) {
      return util::fail(ErrorCode::kExpired, "cascade link expired");
    }
    if (!crypto::hmac_verify(link_key.derive_subkey(kCascadeMacPurpose),
                             cert.signed_bytes(), cert.signature)) {
      return util::fail(ErrorCode::kBadSignature,
                        "cascade link MAC does not verify");
    }
    if (revocation != nullptr) {
      // Cascade links are anonymous (keyed by the parent proxy key, no
      // grantor name), so only the certificate list applies here.
      RPROXY_RETURN_IF_ERROR(revocation->check_link(
          PrincipalName{}, cert.issued_at,
          want_ids ? std::optional<RevocationId>(revocation_id_of(cert))
                   : std::nullopt));
    }
    RPROXY_ASSIGN_OR_RETURN(
        util::Bytes next_key,
        crypto::aead_open(link_key.derive_subkey(kCascadeSealPurpose),
                          cert.proxy_key_material));
    if (next_key.size() != crypto::kSymmetricKeySize) {
      return util::fail(ErrorCode::kParseError,
                        "cascade link seals a malformed proxy key");
    }
    link_key = crypto::SymmetricKey::from_bytes(next_key);
    out.effective_restrictions =
        out.effective_restrictions.merged(cert.restrictions);
    out.expires_at = std::min(out.expires_at, cert.expires_at);
    out.chain_length += 1;
  }

  out.sym_proxy_key = link_key;
  return out;
}

util::Result<VerifiedProxy> ProxyVerifier::verify_pk_chain_(
    const ProxyChain& chain, util::TimePoint now) const {
  if (config_.resolver == nullptr) {
    return util::fail(ErrorCode::kProtocolError,
                      "this server accepts no public-key proxies");
  }
  if (chain.certs.empty()) {
    return util::fail(ErrorCode::kParseError, "public-key chain is empty");
  }
  if (chain.krb_root.has_value()) {
    return util::fail(ErrorCode::kParseError,
                      "public-key chain must not carry a Kerberos root");
  }

  VerifiedProxy out;
  out.mode = ProxyMode::kPublicKey;

  const RevocationRegistry* revocation = config_.revocation;
  const bool want_ids =
      revocation != nullptr && revocation->has_cert_revocations();

  crypto::VerifyKey link_key;  // proxy key of the link verified so far
  for (std::size_t i = 0; i < chain.certs.size(); ++i) {
    const ProxyCertificate& cert = chain.certs[i];
    if (cert.mode != ProxyMode::kPublicKey) {
      return util::fail(ErrorCode::kProtocolError,
                        "public-key chain contains a symmetric link");
    }
    if (cert.expires_at < now) {
      return util::fail(ErrorCode::kExpired,
                        i == 0 ? "proxy certificate expired"
                               : "cascade link expired");
    }
    if (cert.issued_at > now + config_.max_skew) {
      return util::fail(ErrorCode::kExpired,
                        "certificate issued in the future");
    }

    switch (cert.signer) {
      case SignerKind::kGrantorIdentity: {
        if (i != 0) {
          return util::fail(ErrorCode::kProtocolError,
                            "grantor-signed certificate not at chain root");
        }
        RPROXY_ASSIGN_OR_RETURN(crypto::VerifyKey grantor_key,
                                config_.resolver->resolve(cert.grantor));
        RPROXY_RETURN_IF_ERROR(crypto::verify_status(
            grantor_key, cert.signed_bytes(), cert.signature,
            "root proxy certificate"));
        out.grantor = cert.grantor;
        break;
      }
      case SignerKind::kParentProxyKey: {
        if (i == 0) {
          return util::fail(ErrorCode::kProtocolError,
                            "chain root cannot be signed by a parent key");
        }
        RPROXY_RETURN_IF_ERROR(crypto::verify_status(
            link_key, cert.signed_bytes(), cert.signature,
            "bearer cascade link"));
        break;
      }
      case SignerKind::kIntermediateIdentity: {
        if (i == 0) {
          return util::fail(ErrorCode::kProtocolError,
                            "chain root cannot be an intermediate link");
        }
        // "Because the intermediate server is explicitly named in the
        // original proxy, it also grants the subordinate a new proxy" —
        // the signer must be a named grantee of the chain so far.
        bool named = false;
        for (const Restriction& r :
             out.effective_restrictions.items()) {
          if (const auto* g = r.get_if<GranteeRestriction>()) {
            named = named || std::find(g->delegates.begin(),
                                       g->delegates.end(), cert.grantor) !=
                                 g->delegates.end();
          }
        }
        if (!named) {
          return util::fail(
              ErrorCode::kNotGrantee,
              "intermediate '" + cert.grantor +
                  "' is not a named grantee of the chain it extends");
        }
        RPROXY_ASSIGN_OR_RETURN(crypto::VerifyKey intermediate_key,
                                config_.resolver->resolve(cert.grantor));
        RPROXY_RETURN_IF_ERROR(crypto::verify_status(
            intermediate_key, cert.signed_bytes(), cert.signature,
            "delegate cascade link"));
        out.audit_trail.push_back(cert.grantor);
        break;
      }
      default:
        return util::fail(ErrorCode::kParseError, "unknown signer kind");
    }

    if (revocation != nullptr) {
      // Walk order gives cascaded kill for free: rejecting at the first
      // revoked link kills every chain that CONTAINS it, while shorter
      // chains (prefixes) never reach it and survive.  Bearer links carry
      // no grantor name; only the certificate list applies to them.
      static const PrincipalName kAnonymous;
      const PrincipalName& link_grantor =
          cert.signer == SignerKind::kParentProxyKey ? kAnonymous
                                                     : cert.grantor;
      RPROXY_RETURN_IF_ERROR(revocation->check_link(
          link_grantor, cert.issued_at,
          want_ids ? std::optional<RevocationId>(revocation_id_of(cert))
                   : std::nullopt));
    }

    if (cert.proxy_key_material.size() != 32) {
      return util::fail(ErrorCode::kParseError,
                        "malformed embedded proxy key");
    }
    link_key = crypto::VerifyKey::from_bytes(cert.proxy_key_material);
    out.effective_restrictions =
        out.effective_restrictions.merged(cert.restrictions);
    out.expires_at = out.expires_at == 0
                         ? cert.expires_at
                         : std::min(out.expires_at, cert.expires_at);
    out.chain_length += 1;
  }

  out.pk_proxy_key = link_key;
  return out;
}

util::Result<std::vector<PrincipalName>> ProxyVerifier::verify_identity(
    const PossessionProof& proof, util::BytesView challenge,
    util::BytesView request_digest, util::TimePoint now) const {
  if (proof.kind != PossessionProof::Kind::kDelegateKrb &&
      proof.kind != PossessionProof::Kind::kDelegatePk) {
    return util::fail(ErrorCode::kProtocolError,
                      "identity proof must be a personal authentication");
  }
  return verify_possession(VerifiedProxy{}, proof, challenge, request_digest,
                           now);
}

util::Result<std::vector<PrincipalName>> ProxyVerifier::verify_possession(
    const VerifiedProxy& verified, const PossessionProof& proof,
    util::BytesView challenge, util::BytesView request_digest,
    util::TimePoint now) const {
  const util::Duration skew = proof.timestamp > now ? proof.timestamp - now
                                                    : now - proof.timestamp;
  if (skew > config_.max_skew) {
    return util::fail(ErrorCode::kExpired, "possession proof not fresh");
  }
  const util::Bytes transcript =
      presentation_transcript(challenge, config_.server_name,
                              proof.timestamp, proof.nonce, request_digest);

  switch (proof.kind) {
    case PossessionProof::Kind::kBearerMac: {
      if (verified.mode != ProxyMode::kSymmetric) {
        return util::fail(ErrorCode::kProtocolError,
                          "MAC proof for a public-key proxy");
      }
      if (!crypto::hmac_verify(
              verified.sym_proxy_key.derive_subkey(kPresentPurpose),
              transcript, proof.blob)) {
        return util::fail(ErrorCode::kBadSignature,
                          "possession MAC does not verify");
      }
      return std::vector<PrincipalName>{};
    }
    case PossessionProof::Kind::kBearerSig: {
      if (verified.mode != ProxyMode::kPublicKey) {
        return util::fail(ErrorCode::kProtocolError,
                          "signature proof for a symmetric proxy");
      }
      RPROXY_RETURN_IF_ERROR(
          crypto::verify_status(verified.pk_proxy_key, transcript,
                                proof.blob, "possession signature"));
      return std::vector<PrincipalName>{};
    }
    case PossessionProof::Kind::kDelegateKrb: {
      if (!config_.server_key.has_value()) {
        return util::fail(ErrorCode::kProtocolError,
                          "server cannot verify Kerberos identities");
      }
      RPROXY_ASSIGN_OR_RETURN(
          KrbDelegateProofBlob blob,
          wire::decode_from_bytes<KrbDelegateProofBlob>(proof.blob));
      kdc::ApVerifyOptions options;
      options.max_skew = config_.max_skew;
      options.replay_cache = config_.replay_cache;
      RPROXY_ASSIGN_OR_RETURN(
          kdc::ApVerified ap,
          kdc::verify_ap_request(blob.ap, *config_.server_key, now, options));
      if (!crypto::hmac_verify(
              ap.ticket.session_key.derive_subkey(kPresentPurpose),
              transcript, blob.transcript_mac)) {
        return util::fail(ErrorCode::kBadSignature,
                          "delegate transcript MAC does not verify");
      }
      return std::vector<PrincipalName>{ap.ticket.client};
    }
    case PossessionProof::Kind::kDelegatePk: {
      if (!config_.pk_root.has_value()) {
        return util::fail(ErrorCode::kProtocolError,
                          "server cannot verify pk identities");
      }
      RPROXY_ASSIGN_OR_RETURN(
          pki::PkAuthProof pk_proof,
          wire::decode_from_bytes<pki::PkAuthProof>(proof.blob));
      RPROXY_RETURN_IF_ERROR(verify_identity_cert_(pk_proof.cert, now));
      RPROXY_ASSIGN_OR_RETURN(
          PrincipalName who,
          pki::verify_pk_auth_proof(pk_proof, transcript, config_.server_name,
                                    now, config_.max_skew));
      return std::vector<PrincipalName>{who};
    }
  }
  return util::fail(ErrorCode::kParseError, "unknown proof kind");
}

}  // namespace rproxy::core
