#include "crypto/digest.hpp"

#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

namespace rproxy::crypto {

namespace {
struct MdCtxFree {
  void operator()(EVP_MD_CTX* ctx) const { EVP_MD_CTX_free(ctx); }
};

// EVP_sha256() names the algorithm without an implementation, so OpenSSL 3
// looks it up in the provider store on every call that passes it.  The
// implementation is fetched once and kept for the life of the process (a
// static destructor would race threads still hashing at exit); each thread
// reuses one context, freed when the thread exits.
const EVP_MD* sha256_md() {
  static EVP_MD* const md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  if (md == nullptr) throw std::runtime_error("EVP_MD_fetch(SHA256) failed");
  return md;
}

EVP_MD_CTX* thread_ctx() {
  thread_local const std::unique_ptr<EVP_MD_CTX, MdCtxFree> ctx(
      EVP_MD_CTX_new());
  if (!ctx) throw std::runtime_error("EVP_MD_CTX_new failed");
  return ctx.get();
}
}  // namespace

Digest sha256(util::BytesView data) {
  Digest out{};
  unsigned int len = 0;
  EVP_MD_CTX* ctx = thread_ctx();
  if (EVP_DigestInit_ex2(ctx, sha256_md(), nullptr) != 1 ||
      EVP_DigestUpdate(ctx, data.data(), data.size()) != 1 ||
      EVP_DigestFinal_ex(ctx, out.data(), &len) != 1 || len != kDigestSize) {
    throw std::runtime_error("SHA-256 failed");
  }
  return out;
}

util::Bytes sha256_bytes(util::BytesView data) {
  const Digest d = sha256(data);
  return util::Bytes(d.begin(), d.end());
}

}  // namespace rproxy::crypto
