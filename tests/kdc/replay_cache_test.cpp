#include "kdc/replay_cache.hpp"

#include <gtest/gtest.h>

namespace rproxy::kdc {
namespace {

using util::kSecond;

TEST(ReplayCache, FirstUseAccepted) {
  ReplayCache cache;
  EXPECT_TRUE(cache
                  .check_and_insert(util::Bytes{1, 2, 3}, 100 * kSecond,
                                    10 * kSecond)
                  .is_ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, RepeatRejectedWithinWindow) {
  ReplayCache cache;
  const util::Bytes item = {1, 2, 3};
  ASSERT_TRUE(cache.check_and_insert(item, 100 * kSecond, 10 * kSecond)
                  .is_ok());
  EXPECT_EQ(cache.check_and_insert(item, 100 * kSecond, 20 * kSecond).code(),
            util::ErrorCode::kReplay);
}

TEST(ReplayCache, RepeatAcceptedAfterExpiry) {
  ReplayCache cache;
  const util::Bytes item = {1, 2, 3};
  ASSERT_TRUE(
      cache.check_and_insert(item, 100 * kSecond, 10 * kSecond).is_ok());
  EXPECT_TRUE(
      cache.check_and_insert(item, 300 * kSecond, 200 * kSecond).is_ok());
}

TEST(ReplayCache, DistinctItemsIndependent) {
  ReplayCache cache;
  EXPECT_TRUE(cache.check_and_insert(util::Bytes{1}, 100 * kSecond, 0)
                  .is_ok());
  EXPECT_TRUE(cache.check_and_insert(util::Bytes{2}, 100 * kSecond, 0)
                  .is_ok());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ReplayCache, PurgeDropsExpired) {
  ReplayCache cache;
  ASSERT_TRUE(cache.check_and_insert(util::Bytes{1}, 10 * kSecond, 0)
                  .is_ok());
  ASSERT_TRUE(cache.check_and_insert(util::Bytes{2}, 100 * kSecond, 0)
                  .is_ok());
  cache.purge(50 * kSecond);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ReplayCache, PurgeOnEveryCallKeepsCacheBounded) {
  ReplayCache cache;
  // Insert many short-lived items over advancing time; the purge inside
  // check_and_insert must keep old ones from accumulating.
  for (int i = 0; i < 1000; ++i) {
    const util::TimePoint now = i * 2 * kSecond;
    ASSERT_TRUE(cache
                    .check_and_insert(util::Bytes{static_cast<uint8_t>(i),
                                                  static_cast<uint8_t>(i >> 8)},
                                      now + kSecond, now)
                    .is_ok());
  }
  EXPECT_LT(cache.size(), 10u);
}

TEST(ReplayCache, EntryLivesThroughItsExpiryInstant) {
  ReplayCache cache;
  const util::Bytes item = {1, 2, 3};
  ASSERT_TRUE(cache.check_and_insert(item, 10 * kSecond, 0).is_ok());
  // Present at now == expires_at: the repeat is refused, and a purge at
  // that instant keeps the entry.
  EXPECT_EQ(cache.check_and_insert(item, 10 * kSecond, 10 * kSecond).code(),
            util::ErrorCode::kReplay);
  cache.purge(10 * kSecond);
  EXPECT_EQ(cache.size(), 1u);
  // Gone one tick later.
  cache.purge(10 * kSecond + 1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ReplayCache, EmptyAfterEveryEntryExpiresAndOneCallRuns) {
  ReplayCache cache;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cache
                    .check_and_insert(util::Bytes{static_cast<uint8_t>(i)},
                                      (1 + i % 7) * kSecond, 0)
                    .is_ok());
  }
  ASSERT_EQ(cache.size(), 100u);
  cache.purge(8 * kSecond);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ReplayCache, SameItemWithAnotherExpiryIsAnotherKey) {
  // Callers derive expires_at from a timestamp the item authenticates, so
  // identical bytes always carry the same expiry.  A copy presenting a
  // different expiry is a different key here, and fails its proof check
  // upstream (TimestampModeTest.CopyWithShiftedTimestampIsRefused).
  ReplayCache cache;
  const util::Bytes item = {1, 2, 3};
  ASSERT_TRUE(cache.check_and_insert(item, 100 * kSecond, 0).is_ok());
  EXPECT_TRUE(cache.check_and_insert(item, 101 * kSecond, 0).is_ok());
  EXPECT_EQ(cache.check_and_insert(item, 100 * kSecond, 0).code(),
            util::ErrorCode::kReplay);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace rproxy::kdc
