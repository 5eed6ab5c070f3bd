// util::ExpiringTable: entries die at their expiry, and a purge touches
// only the entries it removes — never the live rest of the table.
#include "util/expiring_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

namespace rproxy::util {
namespace {

struct Entry {
  std::string payload;
  TimePoint expires_at = 0;
};

TEST(ExpiringTable, PutFindEraseInKeyOrder) {
  ExpiringTable<int, Entry> table;
  table.put(3, {"c", 30});
  table.put(1, {"a", 50});
  table.put(2, {"b", 10});
  ASSERT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.contains(2));
  EXPECT_EQ(table.find(1)->second.payload, "a");
  EXPECT_EQ(table.find(4), table.end());
  std::vector<int> keys;
  for (const auto& [key, entry] : table) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3}));
  table.erase(2);
  table.erase(4);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.contains(2));
}

TEST(ExpiringTable, PutReplacesTheEntryAndItsExpiry) {
  ExpiringTable<int, Entry> table;
  table.put(1, {"old", 10});
  table.put(1, {"new", 100});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(1)->second.payload, "new");
  // The old expiry is gone from the order too: a purge past it keeps the
  // entry.
  table.purge(50);
  EXPECT_TRUE(table.contains(1));
}

TEST(ExpiringTable, EntryLivesThroughItsExpiryInstant) {
  ExpiringTable<int, Entry> table;
  table.put(1, {"at-now", 10});
  table.put(2, {"before-now", 9});
  std::vector<std::string> expired;
  table.purge(10, [&](const Entry& e) { expired.push_back(e.payload); });
  EXPECT_TRUE(table.contains(1));
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(expired, (std::vector<std::string>{"before-now"}));
  table.purge(11);
  EXPECT_FALSE(table.contains(1));
}

TEST(ExpiringTable, EmptyAfterEveryEntryExpiresAndOnePurgeRuns) {
  ExpiringTable<int, Entry> table;
  for (int i = 0; i < 1000; ++i) table.put(i, {"", (i * 7919) % 500});
  ASSERT_EQ(table.size(), 1000u);
  TimePoint last = -1;
  int calls = 0;
  table.purge(500, [&](const Entry& e) {
    // Earliest first.
    EXPECT_GE(e.expires_at, last);
    last = e.expires_at;
    ++calls;
  });
  EXPECT_EQ(calls, 1000);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.begin(), table.end());
}

TEST(ExpiringTable, EvictEarliestBreaksTiesBySmallestKey) {
  ExpiringTable<int, Entry> table;
  table.put(5, {"", 20});
  table.put(9, {"", 10});
  table.put(7, {"", 10});
  table.evict_earliest();
  EXPECT_FALSE(table.contains(7));
  table.evict_earliest();
  EXPECT_FALSE(table.contains(9));
  EXPECT_TRUE(table.contains(5));
  table.evict_earliest();
  table.evict_earliest();  // empty: no-op
  EXPECT_EQ(table.size(), 0u);
}

TEST(ExpiringTable, EraseIfRemovesFromBothIndexes) {
  ExpiringTable<int, Entry> table;
  for (int i = 0; i < 10; ++i) table.put(i, {i % 2 ? "odd" : "even", i});
  table.erase_if([](int key, const Entry& e) {
    return key < 6 && e.payload == "odd";
  });
  EXPECT_EQ(table.size(), 7u);
  // The erased keys left the expiry order too: a later purge sees only
  // the survivors.
  int purged = 0;
  table.purge(100, [&](const Entry&) { ++purged; });
  EXPECT_EQ(purged, 7);
}

/// Key that counts its comparisons.
struct CountedKey {
  std::uint64_t value = 0;
  static inline std::uint64_t comparisons = 0;
  friend bool operator<(const CountedKey& a, const CountedKey& b) {
    ++comparisons;
    return a.value < b.value;
  }
};

/// Expiry that counts how often the table reads it from a value.
struct CountedExpiry {
  TimePoint at = 0;
  static inline std::uint64_t reads = 0;
  operator TimePoint() const {  // NOLINT(google-explicit-constructor)
    ++reads;
    return at;
  }
};

struct CountedEntry {
  CountedExpiry expires_at;
};

TEST(ExpiringTable, PurgeTouchesOnlyTheEntriesItRemoves) {
  // k expired entries spread among N live ones.  A purge must cost
  // O(k log N) key comparisons and read no live entry's expiry: a walk over
  // the table would do at least N of one or the other.
  constexpr std::uint64_t kLive = 100000;
  constexpr std::uint64_t kExpired = 10;
  constexpr std::uint64_t kStride = (kLive + kExpired) / kExpired;
  ExpiringTable<CountedKey, CountedEntry> table;
  for (std::uint64_t i = 0; i < kLive + kExpired; ++i) {
    const bool expires = i % kStride == kStride / 2;
    table.put(CountedKey{i},
              CountedEntry{CountedExpiry{
                  expires ? TimePoint{1}
                          : TimePoint{1000 + static_cast<TimePoint>(i)}}});
  }
  ASSERT_EQ(table.size(), kLive + kExpired);

  CountedKey::comparisons = 0;
  CountedExpiry::reads = 0;
  std::uint64_t removed = 0;
  table.purge(500, [&](const CountedEntry&) { ++removed; });

  EXPECT_EQ(removed, kExpired);
  EXPECT_EQ(table.size(), kLive);
  const std::uint64_t log_n = std::bit_width(kLive);  // 17
  EXPECT_LE(CountedKey::comparisons, 4 * kExpired * log_n);
  EXPECT_LE(CountedExpiry::reads, kExpired);
}

}  // namespace
}  // namespace rproxy::util
