// Audit log.
//
// Delegate-style cascading "leaves an audit trail since the new proxy
// identifies the intermediate server" (§3.4); end-servers record who acted,
// under whose authority, through whom.
//
// Memory holds exact allowed/denied counts and the newest kRecentCapacity
// records, so a long-running server's log costs the same after a billion
// requests as after a thousand.  The full trail is the sink: open_sink()
// streams every record into a CRC-framed journal file (storage/journal)
// so it survives a crash — an audit trail that dies with the process
// cannot support after-the-fact accounting disputes.  read_sink() loads a
// file back, truncating a torn tail exactly like accounting recovery does.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/journal.hpp"
#include "util/clock.hpp"
#include "util/names.hpp"
#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace rproxy::server {

struct AuditRecord {
  util::TimePoint time = 0;
  Operation operation;
  ObjectName object;
  /// Principal whose rights authorized the operation (proxy grantor or the
  /// directly authenticated client).
  PrincipalName authority;
  /// Identities proven by the presenter.
  std::vector<PrincipalName> identities;
  /// Intermediates that identity-signed cascade links.
  std::vector<PrincipalName> via;
  bool allowed = false;
  std::string detail;  ///< denial reason or operation summary

  void encode(wire::Encoder& enc) const;
  static AuditRecord decode(wire::Decoder& dec);
};

/// The single frame type audit sinks use (the journal's framing already
/// carries the CRC and torn-tail semantics).
inline constexpr std::uint16_t kAuditSinkRecordType = 1;

/// Every member is thread-safe (concurrently dispatched handlers audit
/// every decision).
class AuditLog {
 public:
  /// Records kept in memory; an append beyond it drops the oldest.
  static constexpr std::size_t kRecentCapacity = 1024;

  void append(AuditRecord record);

  /// Attaches a file-backed sink at `path` (created if absent, appended
  /// to — after torn-tail truncation — if present).  Every subsequent
  /// append() is also journaled.  Auditing never blocks serving: a sink
  /// write failure is counted in sink_failures(), not surfaced to the
  /// request path.
  [[nodiscard]] util::Status open_sink(
      const std::string& path,
      storage::FsyncPolicy policy = storage::FsyncPolicy::kBatch);

  /// True once open_sink() succeeded: append() then writes to storage.
  [[nodiscard]] bool has_sink() const { return has_sink_.load(); }

  /// Forces buffered sink records to stable storage.
  [[nodiscard]] util::Status sync_sink();

  /// Loads a sink file back.  A torn final record is dropped, not an
  /// error; unknown frame types are skipped (sink format growth).
  [[nodiscard]] static util::Result<std::vector<AuditRecord>> read_sink(
      const std::string& path);

  /// A copy of the newest min(allowed + denied, kRecentCapacity) records,
  /// oldest first.  Only an attached sink keeps the older ones.
  [[nodiscard]] std::vector<AuditRecord> recent() const;
  /// Every decision appended since construction or clear(), exactly.
  [[nodiscard]] std::size_t allowed_count() const;
  [[nodiscard]] std::size_t denied_count() const;
  [[nodiscard]] std::size_t sink_failures() const {
    std::lock_guard lock(mutex_);
    return sink_failures_;
  }
  /// Zeroes the counts and drops the recent records (the sink file keeps
  /// its history).
  void clear();

 private:
  mutable std::mutex mutex_;
  /// Ring of the newest records: filled by push_back up to
  /// kRecentCapacity, then overwritten in place at oldest_.
  std::vector<AuditRecord> recent_;
  std::size_t oldest_ = 0;
  std::size_t allowed_ = 0;
  std::size_t denied_ = 0;
  std::optional<storage::JournalWriter> sink_;
  std::atomic<bool> has_sink_{false};  ///< sink_ engaged; read lock-free
  std::size_t sink_failures_ = 0;
};

}  // namespace rproxy::server
