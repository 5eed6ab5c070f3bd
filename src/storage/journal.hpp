// CRC32C-framed, length-prefixed append-only journal.
//
// The write-ahead log under the accounting durability layer (DESIGN.md
// §5e).  A journal file is a fixed header (magic, format version, the LSN
// of its first record) followed by frames:
//
//   [u32 payload length][u16 record type][u32 crc32c][payload ...]
//
// with the CRC computed over length, type and payload, so any torn byte —
// in the header or the body — fails the check.  Each frame is issued as a
// single write; a crash can therefore leave at most one partial frame, at
// the tail.  Recovery truncates that torn tail and resumes appending
// instead of failing: losing the record whose reply was never sent is the
// correct outcome, the client retries it.
//
// Durability has one rule: a record is durable once a commit() at or
// above its LSN returns OK.  append() only writes the frame; commit(lsn)
// parks the caller on a committing leader whose single fsync covers
// every record appended since the last barrier.  With N writers in
// flight one disk flush makes N records durable, so durable throughput
// grows with concurrency instead of serializing on the disk; a lone
// writer pays one fsync per commit, the same as flushing every append.
// That leader's round is the only code that fsyncs records: sync() is a
// commit of everything appended so far, and only create()'s header flush
// and the destructor's close flush sit outside it.  bench_t9_journal /
// bench_t11_event_loop measure the spread.
//
// The writer also keeps an in-memory index of where each frame starts (8
// bytes per record in the file), so replication's tail read
// (read_durable) fetches exactly the frames it ships with one pread
// instead of rescanning the file.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/crash_point.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace rproxy::storage {

/// Every journal fsyncs through commit()'s group barrier; there is no
/// other policy.  The enum and AccountingServer::Config::fsync_policy
/// remain only because the end-to-end benchmark's deployment still
/// assigns them; nothing reads either.
enum class FsyncPolicy {
  kGroup,
};

/// One recovered record.
struct JournalRecord {
  std::uint64_t lsn = 0;  ///< 1-based, file base + position
  std::uint16_t type = 0;
  util::Bytes payload;
};

/// Sequentially scans a journal file, validating every frame.
class JournalReader {
 public:
  struct Scan {
    std::uint64_t base_lsn = 0;          ///< from the file header
    std::vector<JournalRecord> records;  ///< every intact record, in order
    /// True when a partial or corrupt final frame was dropped; the valid
    /// prefix ends at `valid_bytes`.
    bool tail_truncated = false;
    std::uint64_t valid_bytes = 0;  ///< header + intact frames
  };

  /// Reads the whole file.  A torn tail is NOT an error (see Scan); a
  /// missing file or bad header is.
  [[nodiscard]] static util::Result<Scan> read(const std::string& path);
};

/// Appender.  append() and sync() are not thread-safe; callers serialize
/// (the accounting server appends under its state mutex).  commit() IS
/// thread-safe — many threads park on it concurrently, each outside
/// whatever lock serialized its append.
class JournalWriter {
 public:
  struct Config {
    /// Test-only kill injection; not owned.  When the crash point fires,
    /// the fatal frame lands torn on disk and append() reports
    /// kUnavailable — the caller must treat the process as dead.
    CrashPoint* crash = nullptr;
  };

  /// Creates a fresh journal whose first record will carry `base_lsn`.
  /// Fails if the file already exists.
  [[nodiscard]] static util::Result<JournalWriter> create(
      const std::string& path, std::uint64_t base_lsn, Config config);

  /// Opens an existing journal for appending: scans it, truncates a torn
  /// tail, and positions at the end of the valid prefix.
  [[nodiscard]] static util::Result<JournalWriter> open(
      const std::string& path, Config config);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Group-commit counters: every fsync of a record is a barrier's.
  struct GroupStats {
    std::uint64_t fsyncs = 0;     ///< commit barriers completed
    std::uint64_t committed = 0;  ///< records those barriers covered
    std::uint64_t waits = 0;      ///< commit() calls that parked on a leader
    std::uint64_t max_group = 0;  ///< most records one barrier covered
  };

  /// Appends one record; returns its LSN.  kUnavailable after a
  /// crash-point kill (the frame may be torn on disk; the caller must not
  /// send the reply the record covers).  The record is NOT durable until
  /// a commit() at or above its LSN returns OK.
  [[nodiscard]] util::Result<std::uint64_t> append(std::uint16_t type,
                                                   util::BytesView payload);

  /// Blocks until every record up to `lsn` is covered by a completed
  /// fsync.  Thread-safe.  The first arrival becomes the commit leader
  /// (one fsync covering everything appended so far) and later arrivals
  /// park on its barrier; a call whose records are already covered
  /// returns at once.  A failed group fsync is STICKY: the failure is
  /// reported to every parked appender — not just the leader — and to
  /// every later call, and the journal is dead from then on (storage-dead
  /// semantics; a log that cannot flush must stop accepting promises).
  [[nodiscard]] util::Status commit(std::uint64_t lsn);

  /// commit() of everything appended so far.  Like append(), call it
  /// under whatever lock serializes the appends.
  [[nodiscard]] util::Status sync();

  [[nodiscard]] GroupStats group_stats() const;

  /// LSN the next append will return.
  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }

  /// Highest LSN covered by a completed fsync.  This is the replication
  /// shipping watermark (DESIGN.md §5h): a record above it could still be
  /// lost to a power failure, so it must never leave the primary.
  /// Thread-safe.
  [[nodiscard]] std::uint64_t durable_lsn() const;

  /// Appends the durable records with LSN in [from_lsn, min(durable_lsn,
  /// from_lsn + max_records - 1)] to `out` and returns the durable LSN the
  /// read was capped at.  One pread of exactly those frames, located
  /// through the frame index; each frame passes the same length and CRC
  /// checks as JournalReader::read, and the first that fails ends the
  /// read.  Those bytes were fsynced, so a bad frame (or a short pread)
  /// is corruption, not a torn tail: the read fails kInternal, naming
  /// the LSN, when it is the first frame asked for.  A `from_lsn` below
  /// base_lsn() or above the watermark reads nothing.  Thread-safe
  /// against append() and commit().
  [[nodiscard]] util::Result<std::uint64_t> read_durable(
      std::uint64_t from_lsn, std::size_t max_records,
      std::vector<JournalRecord>* out) const;

  /// LSN of this file's first record.
  [[nodiscard]] std::uint64_t base_lsn() const { return base_lsn_; }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  /// Shared barrier state for commit(); heap-allocated so the writer
  /// stays movable (mutexes are not).
  struct CommitState {
    std::mutex mutex;
    std::condition_variable cv;
    bool sync_in_progress = false;
    /// Highest LSN covered by a completed fsync.
    std::uint64_t durable_lsn = 0;
    /// Sticky first fsync failure; every waiter and later caller sees it.
    util::Status error = util::Status::ok();
    GroupStats stats;
  };

  JournalWriter() = default;

  /// fsync(fd_) with crash-point gating; marks the writer dead on failure.
  [[nodiscard]] util::Status fsync_now_();

  /// Highest LSN whose frame is fully written to the fd.  Caller holds
  /// commit_->mutex.
  [[nodiscard]] std::uint64_t appended_lsn_locked_() const {
    return base_lsn_ + frame_offsets_.size() - 2;
  }

  std::string path_;
  int fd_ = -1;
  /// Read-only descriptor on the same file, for read_durable's pread.
  int read_fd_ = -1;
  std::uint64_t base_lsn_ = 1;
  std::uint64_t next_lsn_ = 1;
  Config config_;
  /// Crash point fired or unrecoverable I/O error.  Atomic because a
  /// group-commit leader can mark the writer dead while another thread is
  /// mid-append.
  std::atomic<bool> dead_{false};
  /// Byte offset of every fully written frame, plus one entry past the
  /// last: the frame of LSN base_lsn_ + i spans [frame_offsets_[i],
  /// frame_offsets_[i + 1]).  Never empty (entry 0 is the header size).
  /// Guarded by commit_->mutex: the commit leader and read_durable read
  /// it from other threads.
  std::vector<std::uint64_t> frame_offsets_;
  std::unique_ptr<CommitState> commit_;
};

/// Largest accepted record payload.  A corrupt length prefix must not make
/// recovery attempt a multi-gigabyte allocation; anything above this is
/// treated as a torn tail.
inline constexpr std::uint32_t kMaxJournalRecordBytes = 64u << 20;

}  // namespace rproxy::storage
