// Replication's committed-tail read under threads (TSan coverage, see
// .github/workflows/ci.yml): appenders serialized as the accounting server
// serializes them, each committing its own record through group commit,
// and a checkpointer rotating the journal every few milliseconds race a
// reader looping LogDir::read_committed the way the shipper does.  Every
// batch must be contiguous from the requested LSN, at or below the durable
// watermark, and carry the payload its LSN was appended with.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/log_dir.hpp"
#include "testing/tempdir.hpp"

namespace rproxy {
namespace {

using storage::FsyncPolicy;
using storage::JournalRecord;
using storage::LogDir;

/// A record's payload: its own LSN, big-endian, padded to a length that
/// varies with the LSN.
util::Bytes payload_for(std::uint64_t lsn) {
  util::Bytes out(8 + lsn % 13, 0);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(lsn >> (56 - 8 * i));
  }
  return out;
}

std::uint64_t lsn_of(const util::Bytes& payload) {
  std::uint64_t lsn = 0;
  for (std::size_t i = 0; i < 8 && i < payload.size(); ++i) {
    lsn = (lsn << 8) | payload[i];
  }
  return lsn;
}

TEST(ConcurrentTailRead, ReaderRacesAppendCommitAndCheckpoint) {
  rproxy::testing::TempDir tmp;
  LogDir::Config config;
  config.dir = tmp.path();
  config.journal.fsync_policy = FsyncPolicy::kGroup;
  auto opened = LogDir::open(config, nullptr);
  ASSERT_TRUE(opened.is_ok()) << opened.status();
  LogDir log = std::move(opened.value());

  // The server appends and checkpoints under its ledger lock and commits
  // outside it; this mutex plays the ledger lock.
  std::mutex ledger;
  constexpr int kAppenders = 3;
  constexpr int kPerAppender = 400;
  constexpr std::uint64_t kLast = kAppenders * kPerAppender;
  std::atomic<int> appenders_left{kAppenders};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int a = 0; a < kAppenders; ++a) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerAppender; ++i) {
        std::uint64_t lsn = 0;
        {
          std::lock_guard lock(ledger);
          const std::uint64_t next = log.next_lsn();
          auto appended = log.append(7, payload_for(next));
          if (!appended.is_ok() || appended.value() != next) {
            failed.store(true);
            break;
          }
          lsn = appended.value();
        }
        if (!log.commit(lsn).is_ok()) failed.store(true);
      }
      appenders_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    std::uint64_t round = 0;
    while (appenders_left.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      std::lock_guard lock(ledger);
      round += 1;
      if (!log.checkpoint(payload_for(round)).is_ok()) failed.store(true);
    }
  });

  // The reader: the shipper's loop, minus the network.  Runs in a lambda
  // so a failed assertion still reaches the joins below.
  std::uint64_t next = 1;
  int bootstraps = 0;
  const auto read_loop = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (next <= kLast && !failed.load() &&
           std::chrono::steady_clock::now() < deadline) {
      auto tail = log.read_committed(next, 16);
      if (!tail.is_ok()) {
        ASSERT_EQ(tail.code(), util::ErrorCode::kNotFound) << tail.status();
        // Compacted away: resume after the newest snapshot, as a
        // bootstrap does.  LogDir leaves snapshot reads to the caller's
        // lock, as the server does.
        std::lock_guard lock(ledger);
        auto snapshot = log.latest_snapshot();
        ASSERT_TRUE(snapshot.is_ok()) << snapshot.status();
        ASSERT_TRUE(snapshot.value().has_value());
        ASSERT_GE(snapshot.value()->lsn + 1, next);
        next = snapshot.value()->lsn + 1;
        bootstraps += 1;
        continue;
      }
      const std::uint64_t durable_now = log.durable_lsn();
      ASSERT_LE(tail.value().durable_lsn, durable_now);
      const std::vector<JournalRecord>& records = tail.value().records;
      ASSERT_LE(records.size(), 16u);
      for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_EQ(records[i].lsn, next + i);
        ASSERT_LE(records[i].lsn, tail.value().durable_lsn);
        ASSERT_EQ(records[i].type, 7);
        ASSERT_EQ(lsn_of(records[i].payload), records[i].lsn);
        ASSERT_EQ(records[i].payload, payload_for(records[i].lsn));
      }
      next += records.size();
      if (records.empty()) std::this_thread::yield();
    }
  };
  read_loop();
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(next, kLast) << "reader stalled at LSN " << next;
  RecordProperty("bootstraps", bootstraps);
}

}  // namespace
}  // namespace rproxy
