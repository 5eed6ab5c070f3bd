#include "pki/identity_cert.hpp"

namespace rproxy::pki {

namespace {
void encode_signed_fields(wire::Encoder& enc, const IdentityCert& cert) {
  enc.str(cert.subject);
  enc.bytes(cert.public_key.view());
  enc.str(cert.issuer);
  enc.i64(cert.issued_at);
  enc.i64(cert.expires_at);
}
}  // namespace

void IdentityCert::encode(wire::Encoder& enc) const {
  encode_signed_fields(enc, *this);
  enc.bytes(signature);
}

IdentityCert IdentityCert::decode(wire::Decoder& dec) {
  IdentityCert cert;
  cert.subject = dec.str();
  const util::Bytes key = dec.bytes();
  if (dec.ok() && key.size() == 32) {
    cert.public_key = crypto::VerifyKey::from_bytes(key);
  }
  cert.issuer = dec.str();
  cert.issued_at = dec.i64();
  cert.expires_at = dec.i64();
  cert.signature = dec.bytes();
  return cert;
}

util::Bytes IdentityCert::signed_bytes() const {
  wire::Encoder enc;
  encode_signed_fields(enc, *this);
  return enc.take();
}

IdentityCert issue_identity_cert(const PrincipalName& subject,
                                 const crypto::VerifyKey& subject_key,
                                 const PrincipalName& issuer,
                                 const crypto::SigningKeyPair& issuer_key,
                                 util::TimePoint now,
                                 util::Duration lifetime) {
  IdentityCert cert;
  cert.subject = subject;
  cert.public_key = subject_key;
  cert.issuer = issuer;
  cert.issued_at = now;
  cert.expires_at = now + lifetime;
  cert.signature = crypto::sign(issuer_key, cert.signed_bytes());
  return cert;
}

util::Status verify_identity_cert(const IdentityCert& cert,
                                  const crypto::VerifyKey& issuer_key,
                                  util::TimePoint now) {
  RPROXY_RETURN_IF_ERROR(crypto::verify_status(
      issuer_key, cert.signed_bytes(), cert.signature, "identity cert"));
  return check_identity_cert_window(cert, now);
}

util::Status check_identity_cert_window(const IdentityCert& cert,
                                        util::TimePoint now) {
  if (now < cert.issued_at || now > cert.expires_at) {
    return util::fail(util::ErrorCode::kExpired,
                      "identity cert outside validity window");
  }
  return util::Status::ok();
}

}  // namespace rproxy::pki
