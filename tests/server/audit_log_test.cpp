#include "server/audit_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "testing/tempdir.hpp"

namespace rproxy::server {
namespace {

using rproxy::testing::TempDir;

AuditRecord record(bool allowed, const Operation& op = "read") {
  AuditRecord r;
  r.time = 1000;
  r.operation = op;
  r.object = "/doc";
  r.authority = "alice";
  r.allowed = allowed;
  r.detail = allowed ? "ok" : "denied";
  return r;
}

TEST(AuditLog, CountsOutcomes) {
  AuditLog log;
  log.append(record(true));
  log.append(record(false));
  log.append(record(true));
  EXPECT_EQ(log.recent().size(), 3u);
  EXPECT_EQ(log.allowed_count(), 2u);
  EXPECT_EQ(log.denied_count(), 1u);
}

TEST(AuditLog, PreservesOrderAndFields) {
  AuditLog log;
  AuditRecord r = record(true, "write");
  r.identities = {"bob"};
  r.via = {"intermediate"};
  log.append(r);
  const AuditRecord stored = log.recent().front();
  EXPECT_EQ(stored.operation, "write");
  EXPECT_EQ(stored.identities, std::vector<PrincipalName>{"bob"});
  EXPECT_EQ(stored.via, std::vector<PrincipalName>{"intermediate"});
  EXPECT_EQ(stored.authority, "alice");
}

TEST(AuditLog, ClearResets) {
  AuditLog log;
  for (std::size_t i = 0; i < AuditLog::kRecentCapacity + 10; ++i) {
    log.append(record(i % 2 == 0));
  }
  log.clear();
  EXPECT_TRUE(log.recent().empty());
  EXPECT_EQ(log.allowed_count(), 0u);
  EXPECT_EQ(log.denied_count(), 0u);
  // The ring starts over: the next record is the oldest and only one.
  log.append(record(false, "write"));
  ASSERT_EQ(log.recent().size(), 1u);
  EXPECT_EQ(log.recent().front().operation, "write");
  EXPECT_EQ(log.denied_count(), 1u);
}

// Memory holds the newest kRecentCapacity records, oldest first; the
// counts still cover every append.
TEST(AuditLog, KeepsOnlyTheNewestRecordsInOrder) {
  AuditLog log;
  constexpr std::size_t kAppends = 5000;
  for (std::size_t i = 0; i < kAppends; ++i) {
    AuditRecord r = record(i % 3 != 0);
    r.detail = std::to_string(i);
    log.append(std::move(r));
  }
  const std::vector<AuditRecord> recent = log.recent();
  ASSERT_EQ(recent.size(), AuditLog::kRecentCapacity);
  const std::size_t first = kAppends - AuditLog::kRecentCapacity;
  for (std::size_t i = 0; i < recent.size(); ++i) {
    ASSERT_EQ(recent[i].detail, std::to_string(first + i)) << i;
  }
  EXPECT_EQ(log.allowed_count(), 3333u);
  EXPECT_EQ(log.denied_count(), 1667u);
}

TEST(AuditLog, ConcurrentAppendsCountExactly) {
  AuditLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.append(record((i + t) % 4 != 0));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // (i + t) % 4 == 0 for exactly a quarter of each thread's appends.
  EXPECT_EQ(log.denied_count(), std::size_t{kThreads} * kPerThread / 4);
  EXPECT_EQ(log.allowed_count(), std::size_t{kThreads} * kPerThread * 3 / 4);
  EXPECT_EQ(log.recent().size(), AuditLog::kRecentCapacity);
}

TEST(AuditLog, SinkRoundTripsEveryField) {
  TempDir dir;
  const std::string path = dir.sub("audit.wal");
  AuditLog log;
  ASSERT_TRUE(log.open_sink(path).is_ok());
  AuditRecord r = record(true, "write");
  r.identities = {"bob", "carol"};
  r.via = {"intermediate"};
  log.append(r);
  log.append(record(false));
  ASSERT_TRUE(log.sync_sink().is_ok());
  EXPECT_EQ(log.sink_failures(), 0u);

  auto loaded = AuditLog::read_sink(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  const AuditRecord& first = loaded.value()[0];
  EXPECT_EQ(first.time, 1000);
  EXPECT_EQ(first.operation, "write");
  EXPECT_EQ(first.object, "/doc");
  EXPECT_EQ(first.authority, "alice");
  EXPECT_EQ(first.identities,
            (std::vector<PrincipalName>{"bob", "carol"}));
  EXPECT_EQ(first.via, std::vector<PrincipalName>{"intermediate"});
  EXPECT_TRUE(first.allowed);
  EXPECT_FALSE(loaded.value()[1].allowed);
  EXPECT_EQ(loaded.value()[1].detail, "denied");
}

TEST(AuditLog, SinkSurvivesReopenAndAppends) {
  TempDir dir;
  const std::string path = dir.sub("audit.wal");
  {
    AuditLog log;
    ASSERT_TRUE(log.open_sink(path).is_ok());
    log.append(record(true));
  }
  {
    // A "restarted" server appends to the same trail.
    AuditLog log;
    ASSERT_TRUE(log.open_sink(path).is_ok());
    log.append(record(false));
  }
  auto loaded = AuditLog::read_sink(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_TRUE(loaded.value()[0].allowed);
  EXPECT_FALSE(loaded.value()[1].allowed);
}

TEST(AuditLog, SinkTornTailIsDroppedOnRead) {
  TempDir dir;
  const std::string path = dir.sub("audit.wal");
  {
    AuditLog log;
    ASSERT_TRUE(log.open_sink(path).is_ok());
    log.append(record(true));
    log.append(record(false));
  }
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 4);
  auto loaded = AuditLog::read_sink(path);
  ASSERT_TRUE(loaded.is_ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_TRUE(loaded.value()[0].allowed);
}

TEST(AuditLog, SinkFailureNeverBlocksServing) {
  TempDir dir;
  const std::string path = dir.sub("audit.wal");
  AuditLog log;
  ASSERT_TRUE(log.open_sink(path).is_ok());
  // Nuke the directory out from under the sink; appends must still land
  // in memory and only bump the failure counter...
  log.append(record(true));
  std::filesystem::remove(path);
  std::filesystem::remove_all(dir.path());
  // ...though with the fd still open, plain appends keep succeeding; force
  // an oversized record to hit the error path deterministically.
  AuditRecord huge = record(true);
  huge.detail.assign(storage::kMaxJournalRecordBytes + 1, 'x');
  log.append(huge);
  EXPECT_EQ(log.recent().size(), 2u);
  EXPECT_EQ(log.sink_failures(), 1u);
}

}  // namespace
}  // namespace rproxy::server
