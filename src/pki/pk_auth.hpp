// Public-key personal authentication.
//
// Delegate proxies require the grantee to authenticate "under its own
// identity" (§2).  In the public-key realization that is a signature over a
// server-issued challenge with the grantee's identity key, accompanied by
// its identity certificate.
#pragma once

#include "pki/identity_cert.hpp"

namespace rproxy::pki {

/// A signed response to an end-server challenge.
struct PkAuthProof {
  IdentityCert cert;        ///< who is signing (name-server-signed binding)
  util::TimePoint timestamp = 0;
  util::Bytes signature;    ///< Ed25519 over challenge || server || timestamp

  void encode(wire::Encoder& enc) const;
  static PkAuthProof decode(wire::Decoder& dec);
};

/// Produces a proof of identity bound to `challenge` and `server`.
[[nodiscard]] PkAuthProof pk_authenticate(const IdentityCert& cert,
                                          const crypto::SigningKeyPair& key,
                                          util::BytesView challenge,
                                          const PrincipalName& server,
                                          util::TimePoint now);

/// Server-side check: certificate chains to `name_server_root`, signature
/// covers this server's challenge, timestamp within `max_skew` of `now`.
/// Returns the authenticated principal name.  verify_identity_cert
/// followed by verify_pk_auth_proof.
[[nodiscard]] util::Result<PrincipalName> verify_pk_auth(
    const PkAuthProof& proof, const crypto::VerifyKey& name_server_root,
    util::BytesView challenge, const PrincipalName& server,
    util::TimePoint now, util::Duration max_skew = 2 * util::kMinute);

/// The per-presentation half of verify_pk_auth, for a caller that has
/// already verified `proof.cert`: timestamp within `max_skew` of `now`,
/// signature over this server's challenge under the certificate's key.
/// Returns the certificate's subject.
[[nodiscard]] util::Result<PrincipalName> verify_pk_auth_proof(
    const PkAuthProof& proof, util::BytesView challenge,
    const PrincipalName& server, util::TimePoint now,
    util::Duration max_skew = 2 * util::kMinute);

}  // namespace rproxy::pki
