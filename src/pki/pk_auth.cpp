#include "pki/pk_auth.hpp"

namespace rproxy::pki {

namespace {
util::Bytes transcript(util::BytesView challenge, const PrincipalName& server,
                       util::TimePoint timestamp) {
  wire::Encoder enc;
  enc.str("pk-auth-v1");
  enc.bytes(challenge);
  enc.str(server);
  enc.i64(timestamp);
  return enc.take();
}
}  // namespace

void PkAuthProof::encode(wire::Encoder& enc) const {
  cert.encode(enc);
  enc.i64(timestamp);
  enc.bytes(signature);
}

PkAuthProof PkAuthProof::decode(wire::Decoder& dec) {
  PkAuthProof proof;
  proof.cert = IdentityCert::decode(dec);
  proof.timestamp = dec.i64();
  proof.signature = dec.bytes();
  return proof;
}

PkAuthProof pk_authenticate(const IdentityCert& cert,
                            const crypto::SigningKeyPair& key,
                            util::BytesView challenge,
                            const PrincipalName& server,
                            util::TimePoint now) {
  PkAuthProof proof;
  proof.cert = cert;
  proof.timestamp = now;
  proof.signature =
      crypto::sign(key, transcript(challenge, server, now));
  return proof;
}

util::Result<PrincipalName> verify_pk_auth(
    const PkAuthProof& proof, const crypto::VerifyKey& name_server_root,
    util::BytesView challenge, const PrincipalName& server,
    util::TimePoint now, util::Duration max_skew) {
  RPROXY_RETURN_IF_ERROR(
      verify_identity_cert(proof.cert, name_server_root, now));
  return verify_pk_auth_proof(proof, challenge, server, now, max_skew);
}

util::Result<PrincipalName> verify_pk_auth_proof(const PkAuthProof& proof,
                                                 util::BytesView challenge,
                                                 const PrincipalName& server,
                                                 util::TimePoint now,
                                                 util::Duration max_skew) {
  const util::Duration skew = proof.timestamp > now ? proof.timestamp - now
                                                    : now - proof.timestamp;
  if (skew > max_skew) {
    return util::fail(util::ErrorCode::kExpired, "pk-auth proof not fresh");
  }
  RPROXY_RETURN_IF_ERROR(crypto::verify_status(
      proof.cert.public_key,
      transcript(challenge, server, proof.timestamp), proof.signature,
      "pk-auth proof"));
  return proof.cert.subject;
}

}  // namespace rproxy::pki
