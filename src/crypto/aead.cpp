#include "crypto/aead.hpp"

#include <openssl/evp.h>

#include <memory>
#include <stdexcept>

#include "crypto/random.hpp"

namespace rproxy::crypto {

namespace {
struct CtxFree {
  void operator()(EVP_CIPHER_CTX* ctx) const { EVP_CIPHER_CTX_free(ctx); }
};

// EVP_aes_256_gcm() makes OpenSSL 3 fetch the cipher on every init that
// passes it, and a fresh context allocates its GCM state each time.  The
// cipher is fetched once and kept for the life of the process; each thread
// holds one context, bound to it when made and freed when the thread exits.
// A seal or open re-keys that context (a null cipher keeps the bound one),
// which also resets whatever a failed open left in it.
EVP_CIPHER_CTX* thread_ctx() {
  static EVP_CIPHER* const cipher =
      EVP_CIPHER_fetch(nullptr, "AES-256-GCM", nullptr);
  if (cipher == nullptr) {
    throw std::runtime_error("EVP_CIPHER_fetch(AES-256-GCM) failed");
  }
  thread_local const std::unique_ptr<EVP_CIPHER_CTX, CtxFree> ctx = [] {
    std::unique_ptr<EVP_CIPHER_CTX, CtxFree> fresh(EVP_CIPHER_CTX_new());
    if (fresh && EVP_CipherInit_ex2(fresh.get(), cipher, nullptr, nullptr,
                                    1, nullptr) != 1) {
      fresh.reset();
    }
    return fresh;
  }();
  if (!ctx) throw std::runtime_error("AES-256-GCM context setup failed");
  return ctx.get();
}
}  // namespace

util::Bytes aead_seal(const SymmetricKey& key, util::BytesView plaintext,
                      util::BytesView associated_data) {
  const util::Bytes nonce = random_bytes(kNonceSize);
  EVP_CIPHER_CTX* ctx = thread_ctx();
  if (EVP_EncryptInit_ex2(ctx, nullptr, key.view().data(), nonce.data(),
                          nullptr) != 1) {
    throw std::runtime_error("EVP_EncryptInit_ex2 failed");
  }
  int len = 0;
  if (!associated_data.empty() &&
      EVP_EncryptUpdate(ctx, nullptr, &len, associated_data.data(),
                        static_cast<int>(associated_data.size())) != 1) {
    throw std::runtime_error("EVP_EncryptUpdate(aad) failed");
  }
  util::Bytes out;
  out.reserve(kNonceSize + plaintext.size() + kTagSize);
  out.insert(out.end(), nonce.begin(), nonce.end());
  out.resize(kNonceSize + plaintext.size());
  if (!plaintext.empty() &&
      EVP_EncryptUpdate(ctx, out.data() + kNonceSize, &len,
                        plaintext.data(),
                        static_cast<int>(plaintext.size())) != 1) {
    throw std::runtime_error("EVP_EncryptUpdate failed");
  }
  int final_len = 0;
  if (EVP_EncryptFinal_ex(ctx, out.data() + out.size(), &final_len) != 1) {
    throw std::runtime_error("EVP_EncryptFinal_ex failed");
  }
  util::Bytes tag(kTagSize);
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_GET_TAG,
                          static_cast<int>(kTagSize), tag.data()) != 1) {
    throw std::runtime_error("EVP_CTRL_GCM_GET_TAG failed");
  }
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

util::Result<util::Bytes> aead_open(const SymmetricKey& key,
                                    util::BytesView box,
                                    util::BytesView associated_data) {
  using util::ErrorCode;
  if (box.size() < kNonceSize + kTagSize) {
    return util::fail(ErrorCode::kParseError, "AEAD box too short");
  }
  const util::BytesView nonce = box.subspan(0, kNonceSize);
  const util::BytesView ciphertext =
      box.subspan(kNonceSize, box.size() - kNonceSize - kTagSize);
  const util::BytesView tag = box.subspan(box.size() - kTagSize, kTagSize);

  EVP_CIPHER_CTX* ctx = thread_ctx();
  if (EVP_DecryptInit_ex2(ctx, nullptr, key.view().data(), nonce.data(),
                          nullptr) != 1) {
    throw std::runtime_error("EVP_DecryptInit_ex2 failed");
  }
  int len = 0;
  if (!associated_data.empty() &&
      EVP_DecryptUpdate(ctx, nullptr, &len, associated_data.data(),
                        static_cast<int>(associated_data.size())) != 1) {
    throw std::runtime_error("EVP_DecryptUpdate(aad) failed");
  }
  util::Bytes out(ciphertext.size());
  if (!ciphertext.empty() &&
      EVP_DecryptUpdate(ctx, out.data(), &len, ciphertext.data(),
                        static_cast<int>(ciphertext.size())) != 1) {
    return util::fail(ErrorCode::kBadSignature, "AEAD decrypt failed");
  }
  util::Bytes tag_copy(tag.begin(), tag.end());
  if (EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_GCM_SET_TAG,
                          static_cast<int>(kTagSize), tag_copy.data()) != 1) {
    throw std::runtime_error("EVP_CTRL_GCM_SET_TAG failed");
  }
  int final_len = 0;
  if (EVP_DecryptFinal_ex(ctx, out.data() + out.size(), &final_len) != 1) {
    return util::fail(ErrorCode::kBadSignature,
                      "AEAD tag mismatch (wrong key or tampered box)");
  }
  return out;
}

}  // namespace rproxy::crypto
