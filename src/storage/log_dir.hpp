// One durable state directory: snapshots + the active journal.
//
// LogDir ties the two primitives into the recovery protocol the
// accounting server relies on (DESIGN.md §5e):
//
//   * open():  load the newest sealed snapshot (LSN N), replay the
//     journal records with LSN > N, truncate a torn tail, resume
//     appending.  A crash at ANY byte of any prior write lands in one of
//     these cases.
//   * checkpoint(): publish a snapshot at the current LSN, rotate to a
//     fresh journal starting at LSN+1, and delete the superseded journal
//     and snapshot files (log compaction — snapshot N supersedes every
//     record <= N).
//
// Journal files are `journal-<base LSN>.wal`; by construction at most one
// has a base above the newest snapshot (rotation only happens inside
// checkpoint), and files at or below it contain only superseded records.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/journal.hpp"
#include "storage/snapshot_store.hpp"

namespace rproxy::storage {

class LogDir {
 public:
  struct Config {
    std::string dir;
    JournalWriter::Config journal;
  };

  /// What open() recovered; the caller restores the snapshot and replays
  /// the tail into its in-memory state.
  struct Recovered {
    std::optional<SnapshotStore::Loaded> snapshot;
    std::vector<JournalRecord> tail;  ///< records with LSN > snapshot LSN
    bool tail_truncated = false;      ///< a torn final record was dropped
  };

  /// Opens (creating the directory if needed) and recovers.
  [[nodiscard]] static util::Result<LogDir> open(const Config& config,
                                                 Recovered* recovered);

  LogDir(LogDir&&) = default;
  LogDir& operator=(LogDir&&) = default;

  /// Appends one typed record; returns its LSN.
  [[nodiscard]] util::Result<std::uint64_t> append(std::uint16_t type,
                                                   util::BytesView payload);

  /// Group commit: blocks until every record up to `lsn` is covered by a
  /// completed fsync; see JournalWriter::commit.
  /// Unlike append()/checkpoint(), callers invoke this OUTSIDE whatever
  /// lock serializes their appends — parking many threads on one fsync is
  /// the whole point.  Safe against a concurrent checkpoint(): commit
  /// holds the rotation lock shared, checkpoint holds it exclusive.
  [[nodiscard]] util::Status commit(std::uint64_t lsn);

  /// Group-commit counters of the ACTIVE journal (reset at rotation).
  [[nodiscard]] JournalWriter::GroupStats group_stats() const;

  /// commit() of everything appended so far; call it under the lock that
  /// serializes appends.
  [[nodiscard]] util::Status sync();

  /// Publishes `sealed_snapshot` as covering everything appended so far,
  /// rotates the journal, and compacts superseded files.
  [[nodiscard]] util::Status checkpoint(util::BytesView sealed_snapshot);

  /// LSN the next append will return.
  [[nodiscard]] std::uint64_t next_lsn() const {
    return journal_->next_lsn();
  }

  /// Highest LSN covered by a completed fsync of the active journal (the
  /// replication shipping watermark).  Thread-safe.
  [[nodiscard]] std::uint64_t durable_lsn() const;

  /// One journal-tailing read for replication (DESIGN.md §5h).
  struct TailRead {
    std::vector<JournalRecord> records;  ///< LSNs in [from_lsn, durable_lsn]
    std::uint64_t durable_lsn = 0;       ///< watermark at read time
  };

  /// Committed records with LSN >= `from_lsn`, capped at the durable
  /// watermark (shipped ⊆ fsynced) and at `max_records`.  The active
  /// journal's frame index locates exactly the requested frames and one
  /// pread fetches them (JournalWriter::read_durable), so a read costs
  /// O(records returned), not O(journal).  Every frame passes its length
  /// and CRC checks.  Safe against a concurrent append or checkpoint:
  /// both run under the rotation lock, and the cap keeps the read inside
  /// frames fully written before their fsync.
  /// A durable record that cannot be read (a bad frame) ends the read
  /// after the records before it; a read that starts at it fails
  /// kInternal, naming the LSN.
  /// Fails kNotFound for any `from_lsn` below the active journal's base:
  /// a checkpoint compacted those records into the newest snapshot, and
  /// the caller bootstraps the follower from latest_snapshot() instead.
  /// (A journal file below the base outlives its checkpoint only when
  /// removing it failed, and the next open() deletes it; it is never
  /// read.)
  [[nodiscard]] util::Result<TailRead> read_committed(
      std::uint64_t from_lsn, std::size_t max_records) const;

  /// The newest sealed snapshot (a standby's bootstrap payload), or
  /// nullopt for a directory that has never checkpointed.
  [[nodiscard]] util::Result<std::optional<SnapshotStore::Loaded>>
  latest_snapshot() const {
    return snapshots_.load_latest();
  }

  [[nodiscard]] const std::string& dir() const { return config_.dir; }

 private:
  explicit LogDir(Config config)
      : config_(std::move(config)),
        snapshots_(config_.dir),
        rotate_lock_(std::make_unique<std::shared_mutex>()) {}

  [[nodiscard]] std::string journal_path_(std::uint64_t base_lsn) const;

  Config config_;
  SnapshotStore snapshots_;
  /// optional<> only for two-phase construction; always set after open().
  std::optional<JournalWriter> journal_;
  /// checkpoint() replaces journal_ while commit() may be parked on it
  /// from threads that do not hold the owner's append lock; heap-held so
  /// LogDir stays movable.
  std::unique_ptr<std::shared_mutex> rotate_lock_;
};

}  // namespace rproxy::storage
