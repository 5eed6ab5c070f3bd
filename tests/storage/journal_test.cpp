// The write-ahead journal: framing, torn tails, group commit, crashes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/crc32c.hpp"
#include "storage/journal.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using storage::CrashPlan;
using storage::CrashPoint;
using storage::JournalReader;
using storage::JournalWriter;
using testing::TempDir;

util::Bytes payload(const std::string& text) { return util::to_bytes(text); }

util::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return util::Bytes(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const util::Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: crc32c("123456789") = 0xE3069283.
  EXPECT_EQ(storage::crc32c(util::to_bytes(std::string_view("123456789"))),
            0xE3069283u);
  EXPECT_EQ(storage::crc32c(util::Bytes{}), 0u);
}

TEST(Crc32cTest, ChainingMatchesOneShot) {
  const util::Bytes whole = payload("split me anywhere");
  const std::uint32_t one_shot = storage::crc32c(whole);
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    const std::uint32_t first =
        storage::crc32c({whole.data(), cut});
    const std::uint32_t chained =
        storage::crc32c({whole.data() + cut, whole.size() - cut}, first);
    EXPECT_EQ(chained, one_shot) << "cut at " << cut;
  }
}

TEST(JournalTest, EmptyJournalReadsNoRecords) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  auto writer = JournalWriter::create(path, 1, {});
  ASSERT_TRUE(writer.is_ok());
  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().base_lsn, 1u);
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_FALSE(scan.value().tail_truncated);
}

TEST(JournalTest, AppendReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  auto writer = JournalWriter::create(path, 10, {});
  ASSERT_TRUE(writer.is_ok());
  auto lsn1 = writer.value().append(7, payload("first"));
  auto lsn2 = writer.value().append(9, payload(""));
  auto lsn3 = writer.value().append(7, payload("third record"));
  ASSERT_TRUE(lsn1.is_ok());
  EXPECT_EQ(lsn1.value(), 10u);
  EXPECT_EQ(lsn2.value(), 11u);
  EXPECT_EQ(lsn3.value(), 12u);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  ASSERT_EQ(scan.value().records.size(), 3u);
  EXPECT_EQ(scan.value().records[0].lsn, 10u);
  EXPECT_EQ(scan.value().records[0].type, 7u);
  EXPECT_EQ(scan.value().records[0].payload, payload("first"));
  EXPECT_EQ(scan.value().records[1].payload, util::Bytes{});
  EXPECT_EQ(scan.value().records[2].payload, payload("third record"));
  EXPECT_FALSE(scan.value().tail_truncated);
}

TEST(JournalTest, SingleTornRecordIsDroppedNotFatal) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  {
    auto writer = JournalWriter::create(path, 1, {});
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("only record")).is_ok());
  }
  // Cut into the middle of the one-and-only frame.
  const util::Bytes whole = read_file(path);
  std::filesystem::resize_file(path, whole.size() - 5);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_TRUE(scan.value().tail_truncated);
}

TEST(JournalTest, TornTailAfterValidRecordsKeepsThePrefix) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  {
    auto writer = JournalWriter::create(path, 1, {});
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("alpha")).is_ok());
    ASSERT_TRUE(writer.value().append(2, payload("beta")).is_ok());
    ASSERT_TRUE(writer.value().append(3, payload("gamma")).is_ok());
  }
  // Tear three bytes off the final frame.
  const util::Bytes whole = read_file(path);
  std::filesystem::resize_file(path, whole.size() - 3);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[1].payload, payload("beta"));
  EXPECT_TRUE(scan.value().tail_truncated);
}

TEST(JournalTest, BitFlipInvalidatesTheFrameAndEverythingAfter) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  {
    auto writer = JournalWriter::create(path, 1, {});
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("aaaaaaaa")).is_ok());
    ASSERT_TRUE(writer.value().append(2, payload("bbbbbbbb")).is_ok());
    ASSERT_TRUE(writer.value().append(3, payload("cccccccc")).is_ok());
  }
  util::Bytes whole = read_file(path);
  // Flip one payload bit in the SECOND frame (frames are 18 bytes here:
  // 10-byte frame header + 8-byte payload; the file header is 20 bytes).
  whole[20 + 18 + 10 + 3] ^= 0x10;
  write_file(path, whole);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  // First record survives; the corrupt frame and the (intact!) third frame
  // are both dropped — order is the only thing that makes torn-tail
  // truncation sound, so nothing after a bad frame can be trusted.
  ASSERT_EQ(scan.value().records.size(), 1u);
  EXPECT_EQ(scan.value().records[0].payload, payload("aaaaaaaa"));
  EXPECT_TRUE(scan.value().tail_truncated);
}

TEST(JournalTest, ReopenTruncatesTornTailAndContinuesLsns) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  {
    auto writer = JournalWriter::create(path, 1, {});
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("kept")).is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("torn away")).is_ok());
  }
  const util::Bytes whole = read_file(path);
  std::filesystem::resize_file(path, whole.size() - 2);

  auto reopened = JournalWriter::open(path, {});
  ASSERT_TRUE(reopened.is_ok());
  // LSN 2 was torn, so the next append re-uses it.
  EXPECT_EQ(reopened.value().next_lsn(), 2u);
  ASSERT_TRUE(reopened.value().append(1, payload("replacement")).is_ok());

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[1].payload, payload("replacement"));
  EXPECT_FALSE(scan.value().tail_truncated);
}

TEST(JournalTest, OversizedLengthPrefixIsATornTailNotAnAllocation) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  {
    auto writer = JournalWriter::create(path, 1, {});
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer.value().append(1, payload("good")).is_ok());
  }
  util::Bytes whole = read_file(path);
  // Append a frame header claiming a ~4 GiB payload.
  for (const std::uint8_t b : {0xFFu, 0xFFu, 0xFFu, 0xF0u, 0x00u, 0x01u,
                               0x12u, 0x34u, 0x56u, 0x78u}) {
    whole.push_back(b);
  }
  write_file(path, whole);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().records.size(), 1u);
  EXPECT_TRUE(scan.value().tail_truncated);
}

TEST(JournalTest, NotAJournalIsAnError) {
  TempDir dir;
  const std::string path = dir.sub("garbage.wal");
  write_file(path, payload("this is not a journal file at all........"));
  EXPECT_EQ(JournalReader::read(path).code(), util::ErrorCode::kParseError);
  EXPECT_EQ(JournalReader::read(dir.sub("missing.wal")).code(),
            util::ErrorCode::kUnavailable);
}

TEST(JournalTest, CrashPointTearsTheFatalWriteAndKillsTheWriter) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  CrashPoint crash;
  CrashPlan plan;
  plan.seed = 42;
  plan.min_appends = 3;
  plan.max_appends = 3;  // die on the 3rd frame, deterministically
  crash.arm(plan);

  JournalWriter::Config config;
  config.crash = &crash;
  auto writer = JournalWriter::create(path, 1, config);
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer.value().append(1, payload("one")).is_ok());
  ASSERT_TRUE(writer.value().append(1, payload("two")).is_ok());
  const auto fatal = writer.value().append(1, payload("three"));
  EXPECT_EQ(fatal.code(), util::ErrorCode::kUnavailable);
  EXPECT_TRUE(crash.dead());
  // Dead means dead: no further appends.
  EXPECT_EQ(writer.value().append(1, payload("four")).code(),
            util::ErrorCode::kUnavailable);

  // Recovery sees the two durable records; the torn third is dropped.
  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().records.size(), 2u);
}

TEST(JournalTest, DuplicateFramesRoundTrip) {
  // The journal itself does not deduplicate — byte-identical frames are
  // legal and the APPLIER is responsible for idempotence (the accounting
  // recovery test exercises that side).
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  auto writer = JournalWriter::create(path, 1, {});
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer.value().append(5, payload("same")).is_ok());
  ASSERT_TRUE(writer.value().append(5, payload("same")).is_ok());
  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  ASSERT_EQ(scan.value().records.size(), 2u);
  EXPECT_EQ(scan.value().records[0].payload,
            scan.value().records[1].payload);
  EXPECT_NE(scan.value().records[0].lsn, scan.value().records[1].lsn);
}

TEST(GroupCommitTest, OneBarrierCoversEveryRecordAppendedBeforeIt) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  CrashPoint crash;  // inert; only counts fsyncs
  JournalWriter::Config config;
  config.crash = &crash;
  auto writer = JournalWriter::create(path, 1, config);
  ASSERT_TRUE(writer.is_ok());

  // All records land before anyone commits, so the first committer's one
  // fsync covers all of them and every later committer returns without
  // touching the disk — deterministically one barrier.
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> lsns;
  for (int i = 0; i < kThreads; ++i) {
    auto lsn = writer.value().append(1, payload("r" + std::to_string(i)));
    ASSERT_TRUE(lsn.is_ok());
    lsns.push_back(lsn.value());
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      EXPECT_TRUE(writer.value().commit(lsns[static_cast<size_t>(i)]).is_ok());
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(crash.syncs_seen(), 1u);
  const JournalWriter::GroupStats stats = writer.value().group_stats();
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.committed, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.max_group, static_cast<std::uint64_t>(kThreads));
}

TEST(GroupCommitTest, ConcurrentAppendCommitLoopsLoseNothing) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  auto writer = JournalWriter::create(path, 1, {});
  ASSERT_TRUE(writer.is_ok());

  // The accounting server's shape: appends serialized by a caller lock,
  // commits running free.  Every commit that returns OK promises its
  // record is on disk.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::mutex append_mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        std::uint64_t lsn = 0;
        {
          std::lock_guard lock(append_mutex);
          auto appended = writer.value().append(1, payload("x"));
          ASSERT_TRUE(appended.is_ok());
          lsn = appended.value();
        }
        ASSERT_TRUE(writer.value().commit(lsn).is_ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const JournalWriter::GroupStats stats = writer.value().group_stats();
  EXPECT_EQ(stats.committed, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(stats.fsyncs, 1u);
  EXPECT_LE(stats.fsyncs, static_cast<std::uint64_t>(kThreads) * kPerThread);

  auto scan = JournalReader::read(path);
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().records.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(GroupCommitTest, SyncRacingALeaderNeverWrapsTheGroupCounters) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  auto writer = JournalWriter::create(path, 1, {});
  ASSERT_TRUE(writer.is_ok());

  // Group committers append under the caller lock and commit outside it,
  // while syncers append and sync() under the lock.  A sync() is a commit
  // of everything appended, so a syncer that arrives during a leader's
  // fsync parks on it or leads the next round; it never moves durable_lsn
  // behind a leader's back, so no barrier's count can wrap.
  constexpr int kCommitters = 3;
  constexpr int kSyncers = 2;
  constexpr int kRounds = 3000;
  std::mutex append_mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < kCommitters + kSyncers; ++t) {
    const bool syncer = t >= kCommitters;
    threads.emplace_back([&, syncer] {
      for (int i = 0; i < kRounds; ++i) {
        std::uint64_t lsn = 0;
        {
          std::lock_guard lock(append_mutex);
          auto appended = writer.value().append(1, payload("x"));
          ASSERT_TRUE(appended.is_ok());
          lsn = appended.value();
          if (syncer) {
            ASSERT_TRUE(writer.value().sync().is_ok());
            continue;
          }
        }
        ASSERT_TRUE(writer.value().commit(lsn).is_ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::uint64_t appended =
      static_cast<std::uint64_t>(kCommitters + kSyncers) * kRounds;
  const JournalWriter::GroupStats stats = writer.value().group_stats();
  EXPECT_LE(stats.max_group, appended);
  // Every record was committed by someone, and no round counted twice.
  EXPECT_EQ(stats.committed, appended);
}

TEST(GroupCommitTest, FsyncFailureReachesEveryWaiterAndIsSticky) {
  TempDir dir;
  const std::string path = dir.sub("j.wal");
  CrashPoint crash;
  crash.fail_fsync_at(1);  // the very first barrier dies
  JournalWriter::Config config;
  config.crash = &crash;
  auto writer = JournalWriter::create(path, 1, config);
  ASSERT_TRUE(writer.is_ok());

  constexpr int kThreads = 6;
  std::vector<std::uint64_t> lsns;
  for (int i = 0; i < kThreads; ++i) {
    auto lsn = writer.value().append(1, payload("doomed"));
    ASSERT_TRUE(lsn.is_ok());
    lsns.push_back(lsn.value());
  }
  // Every committer — the leader AND everyone parked on its barrier —
  // must see the failure; a waiter that got OK would release a reply for
  // a record that never reached the disk.
  std::vector<util::Status> results(kThreads, util::Status::ok());
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[static_cast<size_t>(i)] =
          writer.value().commit(lsns[static_cast<size_t>(i)]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].code(),
              util::ErrorCode::kUnavailable)
        << "waiter " << i << " was not told about the failed fsync";
  }
  // Storage-dead semantics: the failure is sticky for later commits AND
  // appends — a log that cannot flush must stop accepting promises.
  EXPECT_EQ(writer.value().commit(lsns.back()).code(),
            util::ErrorCode::kUnavailable);
  EXPECT_EQ(writer.value().append(1, payload("after")).code(),
            util::ErrorCode::kUnavailable);
  EXPECT_TRUE(crash.dead());
}

}  // namespace
}  // namespace rproxy
