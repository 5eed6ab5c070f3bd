#include "crypto/hmac.hpp"

#include <openssl/core_names.h>
#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

namespace rproxy::crypto {

namespace {
struct MacCtxFree {
  void operator()(EVP_MAC_CTX* ctx) const { EVP_MAC_CTX_free(ctx); }
};

// HMAC() fetches both the MAC and the digest from OpenSSL 3's provider
// store on every call.  HMAC is fetched once and kept for the life of the
// process; each thread holds one context, bound to SHA-256 when it is made
// and freed when the thread exits, so a call only re-keys it.
EVP_MAC_CTX* thread_ctx() {
  static EVP_MAC* const mac = EVP_MAC_fetch(nullptr, "HMAC", nullptr);
  if (mac == nullptr) throw std::runtime_error("EVP_MAC_fetch(HMAC) failed");
  thread_local const std::unique_ptr<EVP_MAC_CTX, MacCtxFree> ctx = [] {
    std::unique_ptr<EVP_MAC_CTX, MacCtxFree> fresh(EVP_MAC_CTX_new(mac));
    char digest[] = "SHA256";
    const OSSL_PARAM params[] = {
        OSSL_PARAM_construct_utf8_string(OSSL_MAC_PARAM_DIGEST, digest, 0),
        OSSL_PARAM_construct_end()};
    if (fresh && EVP_MAC_CTX_set_params(fresh.get(), params) != 1) {
      fresh.reset();
    }
    return fresh;
  }();
  if (!ctx) throw std::runtime_error("HMAC-SHA256 context setup failed");
  return ctx.get();
}
}  // namespace

util::Bytes hmac_sha256(const SymmetricKey& key, util::BytesView data) {
  util::Bytes out(kMacSize);
  std::size_t len = 0;
  EVP_MAC_CTX* ctx = thread_ctx();
  if (EVP_MAC_init(ctx, key.view().data(), key.view().size(), nullptr) != 1 ||
      EVP_MAC_update(ctx, data.data(), data.size()) != 1 ||
      EVP_MAC_final(ctx, out.data(), &len, out.size()) != 1 ||
      len != kMacSize) {
    throw std::runtime_error("HMAC-SHA256 failed");
  }
  return out;
}

bool hmac_verify(const SymmetricKey& key, util::BytesView data,
                 util::BytesView mac) {
  if (mac.size() != kMacSize) return false;
  const util::Bytes expected = hmac_sha256(key, data);
  return util::constant_time_equal(expected, mac);
}

}  // namespace rproxy::crypto
