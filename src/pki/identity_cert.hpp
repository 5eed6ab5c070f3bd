// Identity certificates for the public-key realization (§6.1).
//
// "The signed proxy is additionally tagged with the name of the grantor to
// enable those needing to verify the proxy to select the correct key."  The
// key itself comes "from an authentication/name server" — here, a
// NameServer that signs bindings of principal name to Ed25519 public key.
#pragma once

#include "crypto/signature.hpp"
#include "util/clock.hpp"
#include "util/names.hpp"
#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace rproxy::pki {

/// A signed binding: `subject` holds `public_key`, says `issuer`.
struct IdentityCert {
  PrincipalName subject;
  crypto::VerifyKey public_key;
  PrincipalName issuer;
  util::TimePoint issued_at = 0;
  util::TimePoint expires_at = 0;
  util::Bytes signature;  ///< Ed25519 by the issuer over signed_view()

  void encode(wire::Encoder& enc) const;
  static IdentityCert decode(wire::Decoder& dec);

  /// The octets covered by the signature (everything but the signature).
  [[nodiscard]] util::Bytes signed_bytes() const;
};

/// Issues a certificate signed with `issuer_key`.
[[nodiscard]] IdentityCert issue_identity_cert(
    const PrincipalName& subject, const crypto::VerifyKey& subject_key,
    const PrincipalName& issuer, const crypto::SigningKeyPair& issuer_key,
    util::TimePoint now, util::Duration lifetime);

/// Verifies the issuer's signature over signed_bytes() (kBadSignature),
/// then the validity window (check_identity_cert_window).
[[nodiscard]] util::Status verify_identity_cert(
    const IdentityCert& cert, const crypto::VerifyKey& issuer_key,
    util::TimePoint now);

/// issued_at <= now <= expires_at, with no skew allowance (kExpired).  The
/// only part of verify_identity_cert that depends on `now`: a verifier
/// that remembers a certificate's signature still runs this on every
/// presentation.
[[nodiscard]] util::Status check_identity_cert_window(
    const IdentityCert& cert, util::TimePoint now);

}  // namespace rproxy::pki
