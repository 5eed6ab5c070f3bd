// Replication's committed-tail read (LogDir::read_committed): the indexed
// read of the active journal must return exactly what a full scan of the
// file returns, never a record above the durable watermark, and never a
// frame that fails its CRC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "storage/journal.hpp"
#include "storage/log_dir.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using storage::FsyncPolicy;
using storage::JournalReader;
using storage::JournalRecord;
using storage::LogDir;
using testing::TempDir;

constexpr std::size_t kFileHeaderBytes = 20;
constexpr std::size_t kFrameHeaderBytes = 10;

/// Payload of the record appended `i`-th: lengths vary (0 included) so a
/// wrong frame offset cannot land on a frame boundary by accident.
util::Bytes payload_for(int i) {
  return util::to_bytes(std::string(static_cast<std::size_t>(i % 7) * 5,
                                    static_cast<char>('a' + i % 26)));
}

LogDir open_log(const std::string& dir,
                FsyncPolicy policy = FsyncPolicy::kBatch) {
  LogDir::Config config;
  config.dir = dir;
  config.journal.fsync_policy = policy;
  auto log = LogDir::open(config, nullptr);
  EXPECT_TRUE(log.is_ok()) << log.status();
  return std::move(log.value());
}

void append_n(LogDir& log, int count, int first = 0) {
  for (int i = first; i < first + count; ++i) {
    ASSERT_TRUE(log.append(static_cast<std::uint16_t>(1 + i % 5),
                           payload_for(i))
                    .is_ok());
  }
}

std::string active_journal(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0 && name > newest) newest = name;
  }
  return dir + "/" + newest;
}

/// Flips one payload bit of the record appended `i`-th into the journal
/// file at `path` (whose first record is the 0th), behind the writer's
/// back.
void corrupt_record(const std::string& path, int i) {
  ASSERT_GT(payload_for(i).size(), 0u);
  std::size_t offset = kFileHeaderBytes + kFrameHeaderBytes;
  for (int j = 0; j < i; ++j) {
    offset += kFrameHeaderBytes + payload_for(j).size();
  }
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  const char byte = static_cast<char>(file.get() ^ 0x04);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(byte);
}

/// Every record of every journal file in `dir`, in LSN order.
std::vector<JournalRecord> scan_all(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("journal-", 0) == 0) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<JournalRecord> all;
  for (const std::string& file : files) {
    auto scan = JournalReader::read(file);
    EXPECT_TRUE(scan.is_ok()) << scan.status();
    for (JournalRecord& record : scan.value().records) {
      all.push_back(std::move(record));
    }
  }
  return all;
}

/// Checks read_committed(from, max) against the full scan for every
/// `from` in [0, last LSN + 2] and a spread of `max`, with the whole
/// journal durable.  LSNs below `first_readable` must fail kNotFound.
void expect_grid_matches_scan(const LogDir& log, const std::string& dir,
                              std::uint64_t first_readable) {
  const std::vector<JournalRecord> all = scan_all(dir);
  const std::uint64_t durable = log.durable_lsn();
  ASSERT_EQ(durable, log.next_lsn() - 1);
  const std::vector<std::size_t> maxes = {
      0, 1, 2, 3, 7, 16, all.size(), all.size() + 5,
      std::numeric_limits<std::size_t>::max()};
  for (std::uint64_t from = 0; from <= durable + 2; ++from) {
    for (const std::size_t max : maxes) {
      SCOPED_TRACE("from " + std::to_string(from) + " max " +
                   std::to_string(max));
      auto tail = log.read_committed(from, max);
      if (std::max<std::uint64_t>(from, 1) < first_readable) {
        EXPECT_EQ(tail.code(), util::ErrorCode::kNotFound);
        continue;
      }
      ASSERT_TRUE(tail.is_ok()) << tail.status();
      EXPECT_EQ(tail.value().durable_lsn, durable);
      std::vector<const JournalRecord*> expected;
      for (const JournalRecord& record : all) {
        if (record.lsn >= from && expected.size() < max) {
          expected.push_back(&record);
        }
      }
      ASSERT_EQ(tail.value().records.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(tail.value().records[i].lsn, expected[i]->lsn);
        EXPECT_EQ(tail.value().records[i].type, expected[i]->type);
        EXPECT_EQ(tail.value().records[i].payload, expected[i]->payload);
      }
    }
  }
}

TEST(TailReadTest, FreshJournalMatchesAFullScan) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 40);
  ASSERT_TRUE(log.sync().is_ok());
  expect_grid_matches_scan(log, dir.path(), 1);
}

TEST(TailReadTest, EmptyJournalReadsNothing) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  for (const std::uint64_t from : {0, 1, 2}) {
    auto tail = log.read_committed(from, 16);
    ASSERT_TRUE(tail.is_ok()) << tail.status();
    EXPECT_TRUE(tail.value().records.empty());
    EXPECT_EQ(tail.value().durable_lsn, 0u);
  }
}

TEST(TailReadTest, ReopenAfterATornTailIndexesOnlyTheValidPrefix) {
  TempDir dir;
  {
    LogDir log = open_log(dir.path());
    append_n(log, 20);
  }
  // Tear the last frame, then reopen: the index must end at the
  // truncated prefix, and appends after the reopen must land in it.
  const std::string path = active_journal(dir.path());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  LogDir log = open_log(dir.path());
  ASSERT_EQ(log.next_lsn(), 20u);
  expect_grid_matches_scan(log, dir.path(), 1);
  append_n(log, 15, 100);
  ASSERT_TRUE(log.sync().is_ok());
  expect_grid_matches_scan(log, dir.path(), 1);
}

TEST(TailReadTest, CheckpointRotationCompactsTheOldLsns) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 25);
  ASSERT_TRUE(log.checkpoint(util::to_bytes(std::string("s25"))).is_ok());
  append_n(log, 12, 25);
  ASSERT_TRUE(log.sync().is_ok());
  // LSNs 1..25 were compacted: below the new base the read takes the
  // directory scan and finds nothing to serve.
  expect_grid_matches_scan(log, dir.path(), 26);
}

TEST(TailReadTest, LeftoverJournalStillServesLsnsBelowTheActiveBase) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 18);
  ASSERT_TRUE(log.sync().is_ok());
  // Keep the pre-checkpoint journal as an interrupted compaction would.
  const std::string old_path = active_journal(dir.path());
  const std::string kept = dir.sub("kept.bin");
  std::filesystem::copy_file(old_path, kept);
  ASSERT_TRUE(log.checkpoint(util::to_bytes(std::string("s18"))).is_ok());
  std::filesystem::rename(kept, old_path);
  append_n(log, 9, 18);
  ASSERT_TRUE(log.sync().is_ok());
  expect_grid_matches_scan(log, dir.path(), 1);
}

TEST(TailReadTest, GroupCommitNeverReturnsUncommittedRecords) {
  TempDir dir;
  LogDir log = open_log(dir.path(), FsyncPolicy::kGroup);
  append_n(log, 10);
  ASSERT_TRUE(log.commit(6).is_ok());
  ASSERT_EQ(log.durable_lsn(), 10u);  // the leader covers all appended
  append_n(log, 5, 10);  // LSNs 11..15, appended but not committed
  for (std::uint64_t from = 1; from <= 16; ++from) {
    auto tail = log.read_committed(from, 100);
    ASSERT_TRUE(tail.is_ok()) << tail.status();
    EXPECT_EQ(tail.value().durable_lsn, 10u);
    for (const JournalRecord& record : tail.value().records) {
      EXPECT_LE(record.lsn, 10u);
    }
    EXPECT_EQ(tail.value().records.size(), from <= 10 ? 11 - from : 0);
  }
  ASSERT_TRUE(log.commit(15).is_ok());
  auto tail = log.read_committed(11, 100);
  ASSERT_TRUE(tail.is_ok()) << tail.status();
  ASSERT_EQ(tail.value().records.size(), 5u);
  EXPECT_EQ(tail.value().records.back().lsn, 15u);
}

// A durable frame that fails its CRC is corruption, not a torn tail: a
// read returns the frames before it, and a read that starts at it fails
// (kInternal, not kNotFound, which would send the follower to a
// bootstrap) instead of reading an empty tail forever.
TEST(TailReadTest, ACorruptFrameEndsTheReadAndFailsOneThatStartsAtIt) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 12);
  ASSERT_TRUE(log.sync().is_ok());
  corrupt_record(active_journal(dir.path()), 5);  // LSN 6
  auto before = log.read_committed(3, 100);
  ASSERT_TRUE(before.is_ok()) << before.status();
  ASSERT_EQ(before.value().records.size(), 3u);  // LSNs 3..5, nothing after
  EXPECT_EQ(before.value().records.back().lsn, 5u);
  auto at = log.read_committed(6, 100);
  EXPECT_EQ(at.code(), util::ErrorCode::kInternal);
  EXPECT_NE(at.status().message().find("LSN 6"), std::string::npos)
      << at.status();
  // The index still locates the frames after it.
  auto after = log.read_committed(7, 100);
  ASSERT_TRUE(after.is_ok()) << after.status();
  ASSERT_EQ(after.value().records.size(), 6u);
  EXPECT_EQ(after.value().records.front().lsn, 7u);
}

// A journal cut short below the watermark reads like a bad frame: the
// pread comes back short, and the frame it cut is corruption too.
TEST(TailReadTest, AShortReadBelowTheWatermarkEndsTheRead) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 12);
  ASSERT_TRUE(log.sync().is_ok());
  const std::string path = active_journal(dir.path());
  std::size_t end_of_lsn_9 = kFileHeaderBytes;
  for (int i = 0; i < 9; ++i) {
    end_of_lsn_9 += kFrameHeaderBytes + payload_for(i).size();
  }
  std::filesystem::resize_file(path, end_of_lsn_9 + 3);  // into LSN 10
  auto before = log.read_committed(4, 100);
  ASSERT_TRUE(before.is_ok()) << before.status();
  ASSERT_EQ(before.value().records.size(), 6u);  // LSNs 4..9
  EXPECT_EQ(before.value().records.back().lsn, 9u);
  for (const std::uint64_t from : {10, 12}) {
    auto at = log.read_committed(from, 100);
    EXPECT_EQ(at.code(), util::ErrorCode::kInternal) << from;
    EXPECT_NE(at.status().message().find("LSN " + std::to_string(from)),
              std::string::npos)
        << at.status();
  }
}

// The same rule below the active journal, where a file an interrupted
// compaction left behind is scanned whole: nothing after its bad frame
// can be located, and no read may skip the gap into the next file.
TEST(TailReadTest, ACorruptFrameInALeftoverJournalEndsTheRead) {
  TempDir dir;
  LogDir log = open_log(dir.path());
  append_n(log, 12);
  ASSERT_TRUE(log.sync().is_ok());
  const std::string old_path = active_journal(dir.path());
  const std::string kept = dir.sub("kept.bin");
  std::filesystem::copy_file(old_path, kept);
  ASSERT_TRUE(log.checkpoint(util::to_bytes(std::string("s12"))).is_ok());
  std::filesystem::rename(kept, old_path);
  append_n(log, 5, 12);
  ASSERT_TRUE(log.sync().is_ok());
  corrupt_record(old_path, 5);  // LSN 6 in the leftover file
  auto before = log.read_committed(3, 100);
  ASSERT_TRUE(before.is_ok()) << before.status();
  ASSERT_EQ(before.value().records.size(), 3u);  // LSNs 3..5, no skip to 13
  EXPECT_EQ(before.value().records.back().lsn, 5u);
  for (const std::uint64_t from : {6, 9, 12}) {
    auto at = log.read_committed(from, 100);
    EXPECT_EQ(at.code(), util::ErrorCode::kInternal) << from;
    EXPECT_NE(at.status().message().find("LSN " + std::to_string(from)),
              std::string::npos)
        << at.status();
  }
  // The active journal still serves its own LSNs.
  auto active = log.read_committed(13, 100);
  ASSERT_TRUE(active.is_ok()) << active.status();
  EXPECT_EQ(active.value().records.size(), 5u);
}

}  // namespace
}  // namespace rproxy
