// Audit log.
//
// Delegate-style cascading "leaves an audit trail since the new proxy
// identifies the intermediate server" (§3.4); end-servers record who acted,
// under whose authority, through whom.
//
// The log is in-memory by default; open_sink() additionally streams every
// record into a CRC-framed journal file (storage/journal) so the trail
// survives a crash — an audit trail that dies with the process cannot
// support after-the-fact accounting disputes.  read_sink() loads a file
// back, truncating a torn tail exactly like accounting recovery does.
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

/// Appends and counters are thread-safe (concurrently dispatched handlers
/// audit every decision).  records() hands out a reference to the live
/// vector and is for inspection only after the server has quiesced — it
/// must not be called while requests are still in flight.
class AuditLog {
 public:
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

  [[nodiscard]] const std::vector<AuditRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t allowed_count() const;
  [[nodiscard]] std::size_t denied_count() const;
  [[nodiscard]] std::size_t sink_failures() const {
    std::lock_guard lock(mutex_);
    return sink_failures_;
  }
  /// Clears the in-memory records (the sink file keeps its history).
  void clear() {
    std::lock_guard lock(mutex_);
    records_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<AuditRecord> records_;
  std::optional<storage::JournalWriter> sink_;
  std::atomic<bool> has_sink_{false};  ///< sink_ engaged; read lock-free
  std::size_t sink_failures_ = 0;
};

}  // namespace rproxy::server
