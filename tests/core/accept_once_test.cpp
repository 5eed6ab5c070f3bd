#include "core/accept_once_cache.hpp"

#include <gtest/gtest.h>

namespace rproxy::core {
namespace {

using util::kSecond;

TEST(AcceptOnceCache, FirstUseAccepted) {
  AcceptOnceCache cache;
  EXPECT_TRUE(
      cache.check_and_insert("alice", 7, 100 * kSecond, 0).is_ok());
}

TEST(AcceptOnceCache, DuplicateRejected) {
  AcceptOnceCache cache;
  ASSERT_TRUE(
      cache.check_and_insert("alice", 7, 100 * kSecond, 0).is_ok());
  EXPECT_EQ(
      cache.check_and_insert("alice", 7, 100 * kSecond, kSecond).code(),
      util::ErrorCode::kReplay);
}

TEST(AcceptOnceCache, GrantorScoping) {
  AcceptOnceCache cache;
  ASSERT_TRUE(
      cache.check_and_insert("alice", 7, 100 * kSecond, 0).is_ok());
  EXPECT_TRUE(cache.check_and_insert("bob", 7, 100 * kSecond, 0).is_ok());
}

TEST(AcceptOnceCache, ExpiryReleasesIdentifier) {
  AcceptOnceCache cache;
  ASSERT_TRUE(cache.check_and_insert("alice", 7, 10 * kSecond, 0).is_ok());
  EXPECT_TRUE(
      cache.check_and_insert("alice", 7, 100 * kSecond, 20 * kSecond)
          .is_ok());
}

TEST(AcceptOnceCache, SeenQuery) {
  AcceptOnceCache cache;
  EXPECT_FALSE(cache.seen("alice", 7, 0));
  ASSERT_TRUE(cache.check_and_insert("alice", 7, 100 * kSecond, 0).is_ok());
  EXPECT_TRUE(cache.seen("alice", 7, 0));
  EXPECT_FALSE(cache.seen("alice", 7, 200 * kSecond));  // expired
  EXPECT_FALSE(cache.seen("bob", 7, 0));
}

TEST(AcceptOnceCache, SeenThroughExpiryInstantOnly) {
  // seen() keeps check_and_insert's boundary: a replay is rejected at the
  // expiry instant itself and accepted one tick after.
  AcceptOnceCache cache;
  ASSERT_TRUE(cache.check_and_insert("alice", 7, 10 * kSecond, 0).is_ok());
  EXPECT_TRUE(cache.seen("alice", 7, 10 * kSecond));
  EXPECT_FALSE(cache.seen("alice", 7, 10 * kSecond + 1));
}

TEST(AcceptOnceCache, OnlyTheNewEntryRemainsAfterEveryOldOneExpires) {
  // check_and_insert purges before it inserts, so one call after every
  // remembered identifier expired leaves only its own entry behind.
  AcceptOnceCache cache;
  for (std::uint64_t id = 0; id < 100; ++id) {
    ASSERT_TRUE(cache
                    .check_and_insert(id % 2 == 0 ? "alice" : "bob", id,
                                      static_cast<util::TimePoint>(
                                          (1 + id % 7) * kSecond),
                                      0)
                    .is_ok());
  }
  ASSERT_EQ(cache.size(), 100u);
  ASSERT_TRUE(
      cache.check_and_insert("carol", 1, 100 * kSecond, 8 * kSecond).is_ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AcceptOnceCache, SameIdentifierWithALaterExpiryIsStillRejected) {
  // §7.7 rejects a different proxy from the same grantor with the same
  // identifier, whatever expiry that proxy carries.
  AcceptOnceCache cache;
  ASSERT_TRUE(cache.check_and_insert("alice", 7, 10 * kSecond, 0).is_ok());
  EXPECT_EQ(cache.check_and_insert("alice", 7, 500 * kSecond, kSecond).code(),
            util::ErrorCode::kReplay);
  EXPECT_EQ(cache.check_and_insert("alice", 7, 10 * kSecond, 10 * kSecond)
                .code(),
            util::ErrorCode::kReplay);
  EXPECT_TRUE(
      cache.check_and_insert("alice", 7, 500 * kSecond, 10 * kSecond + 1)
          .is_ok());
}

}  // namespace
}  // namespace rproxy::core
