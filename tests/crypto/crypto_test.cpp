#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/digest.hpp"
#include "crypto/hmac.hpp"
#include "crypto/random.hpp"
#include "crypto/signature.hpp"

namespace rproxy::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_bytes;
using util::to_hex;

// Known answers, checked against libcrypto directly.
// HMAC-SHA-256, RFC 4868 test case AUTH256-1.
const Bytes kAuth256Key(32, 0x0b);
const Bytes kAuth256Data = to_bytes(std::string_view("Hi There"));
constexpr std::string_view kAuth256Mac =
    "198a607eb44bfbc69903a0f1cf2bbdc5ba0aa3f3d9ae3c1c7a3b1696a0b68cf7";

// AES-256-GCM, test cases 13 and 14 of the GCM specification: a zero key
// and a zero 96-bit IV, as aead_open's nonce || ciphertext || tag.
const Bytes kGcmZeroKey(32, 0);
Bytes gcm_box(std::string_view ciphertext_hex, std::string_view tag_hex) {
  Bytes box(kNonceSize, 0);
  const Bytes ciphertext = from_hex(ciphertext_hex);
  const Bytes tag = from_hex(tag_hex);
  box.insert(box.end(), ciphertext.begin(), ciphertext.end());
  box.insert(box.end(), tag.begin(), tag.end());
  return box;
}
const Bytes kGcmCase13 = gcm_box("", "530f8afbc74536b9a963b4f1c4cb738b");
const Bytes kGcmCase14 = gcm_box("cea7403d4d606b6e074ec5d3baf39d18",
                                 "d0d1c8a799996bf0265b98b5d48ab919");

TEST(Digest, KnownVector) {
  // SHA-256("abc")
  EXPECT_EQ(
      to_hex(sha256_bytes(to_bytes(std::string_view("abc")))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Digest, EmptyInput) {
  EXPECT_EQ(
      to_hex(sha256_bytes({})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Digest, Deterministic) {
  const Bytes data = random_bytes(1024);
  EXPECT_EQ(sha256(data), sha256(data));
}

TEST(Random, DistinctDraws) {
  EXPECT_NE(random_bytes(32), random_bytes(32));
  EXPECT_NE(random_u64(), random_u64());  // astronomically unlikely to fail
}

TEST(Random, RequestedSizes) {
  EXPECT_EQ(random_bytes(0).size(), 0u);
  EXPECT_EQ(random_bytes(1).size(), 1u);
  EXPECT_EQ(random_bytes(1000).size(), 1000u);
}

TEST(DeterministicRng, Reproducible) {
  DeterministicRng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(DeterministicRng, BoundedDraw) {
  DeterministicRng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(SymmetricKey, GenerateDistinct) {
  EXPECT_FALSE(SymmetricKey::generate() == SymmetricKey::generate());
}

TEST(SymmetricKey, PasswordDerivationDeterministic) {
  const SymmetricKey a = SymmetricKey::derive_from_password("pw", "alice");
  const SymmetricKey b = SymmetricKey::derive_from_password("pw", "alice");
  const SymmetricKey c = SymmetricKey::derive_from_password("pw", "bob");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(SymmetricKey, SubkeysDifferByPurpose) {
  const SymmetricKey k = SymmetricKey::generate();
  EXPECT_FALSE(k.derive_subkey("a") == k.derive_subkey("b"));
  EXPECT_TRUE(k.derive_subkey("a") == k.derive_subkey("a"));
  EXPECT_FALSE(k.derive_subkey("a") == k);
}

TEST(SymmetricKey, FingerprintStableAndShort) {
  const SymmetricKey k = SymmetricKey::generate();
  EXPECT_EQ(k.fingerprint(), k.fingerprint());
  EXPECT_EQ(k.fingerprint().size(), 8u);
}

TEST(Hmac, VerifyRoundTrip) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes data = to_bytes(std::string_view("message"));
  const Bytes mac = hmac_sha256(k, data);
  EXPECT_EQ(mac.size(), kMacSize);
  EXPECT_TRUE(hmac_verify(k, data, mac));
}

TEST(Hmac, RejectsTamperedData) {
  const SymmetricKey k = SymmetricKey::generate();
  Bytes data = to_bytes(std::string_view("message"));
  const Bytes mac = hmac_sha256(k, data);
  data[0] ^= 1;
  EXPECT_FALSE(hmac_verify(k, data, mac));
}

TEST(Hmac, RejectsWrongKey) {
  const Bytes data = to_bytes(std::string_view("message"));
  const Bytes mac = hmac_sha256(SymmetricKey::generate(), data);
  EXPECT_FALSE(hmac_verify(SymmetricKey::generate(), data, mac));
}

TEST(Hmac, RejectsWrongLengthMac) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes data = to_bytes(std::string_view("m"));
  Bytes mac = hmac_sha256(k, data);
  mac.pop_back();
  EXPECT_FALSE(hmac_verify(k, data, mac));
}

TEST(Aead, SealOpenRoundTrip) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes plaintext = to_bytes(std::string_view("secret payload"));
  const Bytes box = aead_seal(k, plaintext);
  auto opened = aead_open(k, box);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_EQ(opened.value(), plaintext);
}

TEST(Aead, EmptyPlaintext) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes box = aead_seal(k, {});
  auto opened = aead_open(k, box);
  ASSERT_TRUE(opened.is_ok());
  EXPECT_TRUE(opened.value().empty());
}

TEST(Aead, AssociatedDataBinds) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes aad = to_bytes(std::string_view("context"));
  const Bytes box = aead_seal(k, to_bytes(std::string_view("p")), aad);
  EXPECT_TRUE(aead_open(k, box, aad).is_ok());
  EXPECT_EQ(aead_open(k, box, to_bytes(std::string_view("other"))).code(),
            util::ErrorCode::kBadSignature);
  EXPECT_EQ(aead_open(k, box).code(), util::ErrorCode::kBadSignature);
}

TEST(Aead, RejectsWrongKey) {
  const Bytes box =
      aead_seal(SymmetricKey::generate(), to_bytes(std::string_view("p")));
  EXPECT_EQ(aead_open(SymmetricKey::generate(), box).code(),
            util::ErrorCode::kBadSignature);
}

TEST(Aead, RejectsTamperedCiphertext) {
  const SymmetricKey k = SymmetricKey::generate();
  Bytes box = aead_seal(k, to_bytes(std::string_view("payload")));
  box[box.size() / 2] ^= 1;
  EXPECT_FALSE(aead_open(k, box).is_ok());
}

TEST(Aead, RejectsTruncatedBox) {
  const SymmetricKey k = SymmetricKey::generate();
  Bytes box = aead_seal(k, to_bytes(std::string_view("payload")));
  box.resize(kNonceSize + kTagSize - 1);
  EXPECT_EQ(aead_open(k, box).code(), util::ErrorCode::kParseError);
}

TEST(Aead, NonDeterministic) {
  const SymmetricKey k = SymmetricKey::generate();
  const Bytes p = to_bytes(std::string_view("same"));
  EXPECT_NE(aead_seal(k, p), aead_seal(k, p));  // fresh nonce each time
}

// --- Known answers through the per-thread contexts ---

TEST(Hmac, Rfc4868Auth256Case1) {
  const SymmetricKey key = SymmetricKey::from_bytes(kAuth256Key);
  EXPECT_EQ(to_hex(hmac_sha256(key, kAuth256Data)), kAuth256Mac);
  EXPECT_TRUE(hmac_verify(key, kAuth256Data, from_hex(kAuth256Mac)));
}

TEST(Aead, GcmSpecCase13) {
  auto opened = aead_open(SymmetricKey::from_bytes(kGcmZeroKey), kGcmCase13);
  ASSERT_TRUE(opened.is_ok()) << opened.status();
  EXPECT_TRUE(opened.value().empty());
}

TEST(Aead, GcmSpecCase14) {
  auto opened = aead_open(SymmetricKey::from_bytes(kGcmZeroKey), kGcmCase14);
  ASSERT_TRUE(opened.is_ok()) << opened.status();
  EXPECT_EQ(opened.value(), Bytes(16, 0));
}

TEST(CryptoContexts, FailedOpenLeavesTheNextCallExact) {
  const SymmetricKey zero = SymmetricKey::from_bytes(kGcmZeroKey);
  for (const Bytes& good : {kGcmCase13, kGcmCase14}) {
    Bytes flipped = good;
    flipped.back() ^= 0x01;  // one tag bit
    EXPECT_EQ(aead_open(zero, flipped).code(),
              util::ErrorCode::kBadSignature);
    auto opened = aead_open(zero, good);
    ASSERT_TRUE(opened.is_ok()) << opened.status();
    EXPECT_EQ(opened.value(), Bytes(good.size() - kNonceSize - kTagSize, 0));

    EXPECT_FALSE(aead_open(zero, flipped).is_ok());
    EXPECT_EQ(to_hex(hmac_sha256(SymmetricKey::from_bytes(kAuth256Key),
                                 kAuth256Data)),
              kAuth256Mac);
    EXPECT_FALSE(aead_open(zero, flipped).is_ok());
    const Bytes plaintext = to_bytes(std::string_view("after a failure"));
    auto round_trip = aead_open(zero, aead_seal(zero, plaintext));
    ASSERT_TRUE(round_trip.is_ok()) << round_trip.status();
    EXPECT_EQ(round_trip.value(), plaintext);
  }
}

TEST(CryptoContexts, RejectedMacLeavesTheNextCallExact) {
  const SymmetricKey key = SymmetricKey::from_bytes(kAuth256Key);
  Bytes wrong = from_hex(kAuth256Mac);
  wrong[0] ^= 0x80;
  EXPECT_FALSE(hmac_verify(key, kAuth256Data, wrong));
  EXPECT_EQ(to_hex(hmac_sha256(key, kAuth256Data)), kAuth256Mac);

  EXPECT_FALSE(hmac_verify(key, kAuth256Data, wrong));
  auto opened = aead_open(SymmetricKey::from_bytes(kGcmZeroKey), kGcmCase14);
  ASSERT_TRUE(opened.is_ok()) << opened.status();
  EXPECT_EQ(opened.value(), Bytes(16, 0));
}

TEST(CryptoContexts, ConcurrentCallsMatchSingleThreadedOutputs) {
  // Inputs and expected outputs, computed on this thread first.
  constexpr std::size_t kInputs = 32;
  std::vector<SymmetricKey> keys;
  std::vector<Bytes> messages;
  std::vector<Digest> digests;
  std::vector<Bytes> macs;
  std::vector<Bytes> boxes;
  DeterministicRng rng(2025);
  for (std::size_t i = 0; i < kInputs; ++i) {
    Bytes key(32);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    keys.push_back(SymmetricKey::from_bytes(key));
    Bytes message(i * 37 % 300);
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.next_u64());
    messages.push_back(message);
    digests.push_back(sha256(message));
    macs.push_back(hmac_sha256(keys[i], message));
    boxes.push_back(aead_seal(keys[i], message));
  }

  constexpr int kThreads = 8;
  constexpr int kCalls = 10000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      DeterministicRng pick(static_cast<std::uint64_t>(t) + 1);
      for (int call = 0; call < kCalls; ++call) {
        const std::size_t i = pick.next_below(kInputs);
        bool ok = true;
        switch (pick.next_below(4)) {
          case 0:
            ok = sha256(messages[i]) == digests[i];
            break;
          case 1:
            ok = hmac_sha256(keys[i], messages[i]) == macs[i];
            break;
          case 2: {
            auto opened = aead_open(keys[i], aead_seal(keys[i], messages[i]));
            ok = opened.is_ok() && opened.value() == messages[i];
            break;
          }
          default: {
            auto opened = aead_open(keys[i], boxes[i]);
            ok = opened.is_ok() && opened.value() == messages[i];
            break;
          }
        }
        if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Signature, SignVerifyRoundTrip) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  const Bytes data = to_bytes(std::string_view("claim"));
  const Bytes sig = sign(pair, data);
  EXPECT_EQ(sig.size(), kSignatureSize);
  EXPECT_TRUE(verify(pair.public_key(), data, sig));
}

TEST(Signature, RejectsTamperedData) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  Bytes data = to_bytes(std::string_view("claim"));
  const Bytes sig = sign(pair, data);
  data[0] ^= 1;
  EXPECT_FALSE(verify(pair.public_key(), data, sig));
}

TEST(Signature, RejectsWrongKey) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  const Bytes data = to_bytes(std::string_view("claim"));
  const Bytes sig = sign(pair, data);
  EXPECT_FALSE(verify(SigningKeyPair::generate().public_key(), data, sig));
}

TEST(Signature, RejectsMalformedSignature) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  const Bytes data = to_bytes(std::string_view("claim"));
  EXPECT_FALSE(verify(pair.public_key(), data, Bytes{1, 2, 3}));
}

TEST(Signature, KeyPairFromSeedIsStable) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  const SigningKeyPair again =
      SigningKeyPair::from_private_bytes(pair.private_bytes());
  EXPECT_TRUE(pair.public_key() == again.public_key());
  const Bytes data = to_bytes(std::string_view("x"));
  EXPECT_TRUE(verify(again.public_key(), data, sign(pair, data)));
}

TEST(Signature, VerifyStatusMapsToBadSignature) {
  const SigningKeyPair pair = SigningKeyPair::generate();
  const Bytes data = to_bytes(std::string_view("x"));
  EXPECT_TRUE(
      verify_status(pair.public_key(), data, sign(pair, data), "t").is_ok());
  EXPECT_EQ(
      verify_status(pair.public_key(), data, Bytes(64, 0), "t").code(),
      util::ErrorCode::kBadSignature);
}

}  // namespace
}  // namespace rproxy::crypto
