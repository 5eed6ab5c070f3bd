#include "core/challenge_registry.hpp"

#include <gtest/gtest.h>

namespace rproxy::core {
namespace {

using util::kMinute;
using util::kSecond;

TEST(ChallengeRegistry, IssueAndTake) {
  ChallengeRegistry registry;
  const auto c = registry.issue(0);
  EXPECT_EQ(c.nonce.size(), 32u);
  auto taken = registry.take(c.id, kSecond);
  ASSERT_TRUE(taken.is_ok());
  EXPECT_EQ(taken.value(), c.nonce);
}

TEST(ChallengeRegistry, SingleUse) {
  ChallengeRegistry registry;
  const auto c = registry.issue(0);
  ASSERT_TRUE(registry.take(c.id, 0).is_ok());
  EXPECT_EQ(registry.take(c.id, 0).code(), util::ErrorCode::kProtocolError);
}

TEST(ChallengeRegistry, UnknownIdRejected) {
  ChallengeRegistry registry;
  EXPECT_EQ(registry.take(12345, 0).code(), util::ErrorCode::kProtocolError);
}

TEST(ChallengeRegistry, ExpiryEnforced) {
  ChallengeRegistry registry(kMinute);
  const auto c = registry.issue(0);
  EXPECT_EQ(registry.take(c.id, 2 * kMinute).code(),
            util::ErrorCode::kExpired);
}

TEST(ChallengeRegistry, DistinctChallenges) {
  ChallengeRegistry registry;
  const auto a = registry.issue(0);
  const auto b = registry.issue(0);
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.nonce, b.nonce);
}

TEST(ChallengeRegistry, StaleChallengesPurgedOnIssue) {
  ChallengeRegistry registry(kMinute);
  for (int i = 0; i < 100; ++i) (void)registry.issue(0);
  EXPECT_EQ(registry.outstanding(), 100u);
  (void)registry.issue(10 * kMinute);  // everything older expired
  EXPECT_EQ(registry.outstanding(), 1u);
}

TEST(ChallengeRegistry, StaleChallengesPurgedOnTake) {
  // A server that stops issuing challenges (e.g. clients switched to
  // timestamp mode) must still shed abandoned ones: take() purges just as
  // issue() does.
  ChallengeRegistry registry(kMinute);
  for (int i = 0; i < 100; ++i) (void)registry.issue(0);
  EXPECT_EQ(registry.outstanding(), 100u);
  // A failing take() long after expiry — with no further issues — drains
  // the registry rather than leaving 100 corpses forever.
  EXPECT_FALSE(registry.take(999999, 10 * kMinute).is_ok());
  EXPECT_EQ(registry.outstanding(), 0u);
}

TEST(ChallengeRegistry, TakePurgesExpiredAndKeepsLiveChallenges) {
  ChallengeRegistry registry(kMinute);
  (void)registry.issue(0);
  const auto live = registry.issue(10 * kMinute);
  // A take at t=10min purges the stale challenge from t=0...
  EXPECT_FALSE(registry.take(999999, 10 * kMinute).is_ok());
  EXPECT_EQ(registry.outstanding(), 1u);
  // ...and the surviving challenge is still claimable.
  EXPECT_TRUE(registry.take(live.id, 10 * kMinute + kSecond).is_ok());
}

TEST(ChallengeRegistry, ExpiredChallengeReportsExpiredThroughItsInstant) {
  // take() looks up before it purges: an expired challenge still answers
  // kExpired rather than "unknown", and is gone after that.
  ChallengeRegistry registry(kMinute);
  const auto on_time = registry.issue(0);
  EXPECT_TRUE(registry.take(on_time.id, kMinute).is_ok());
  const auto late = registry.issue(0);
  EXPECT_EQ(registry.take(late.id, kMinute + 1).code(),
            util::ErrorCode::kExpired);
  EXPECT_EQ(registry.take(late.id, kMinute + 1).code(),
            util::ErrorCode::kProtocolError);
}

TEST(ChallengeRegistry, EmptyAfterEveryChallengeExpiresAndOneCallRuns) {
  ChallengeRegistry registry(kMinute);
  // Issue times spread over 50 s, inside one TTL, so none purges another.
  for (int i = 0; i < 100; ++i) (void)registry.issue(i * kSecond / 2);
  ASSERT_EQ(registry.outstanding(), 100u);
  EXPECT_FALSE(registry.take(999999, 3 * kMinute).is_ok());
  EXPECT_EQ(registry.outstanding(), 0u);
}

TEST(ChallengeRegistry, ChallengeWireFormatIsIdThenNonce) {
  ChallengeRegistry::Challenge c;
  c.id = 0x0102030405060708;
  c.nonce = {0xaa, 0xbb};
  wire::Encoder enc;
  enc.u64(c.id);
  enc.bytes(c.nonce);
  EXPECT_EQ(wire::encode_to_bytes(c), enc.take());
  auto decoded =
      wire::decode_from_bytes<ChallengeRegistry::Challenge>(
          wire::encode_to_bytes(c));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().id, c.id);
  EXPECT_EQ(decoded.value().nonce, c.nonce);
  EXPECT_TRUE(wire::encode_to_bytes(ChallengeRequest{}).empty());
}

}  // namespace
}  // namespace rproxy::core
