#include "storage/log_dir.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

namespace rproxy::storage {

using util::ErrorCode;

namespace {

constexpr std::string_view kJournalPrefix = "journal-";
constexpr std::string_view kJournalSuffix = ".wal";

std::string journal_name(std::uint64_t base_lsn) {
  std::string digits = std::to_string(base_lsn);
  return std::string(kJournalPrefix) +
         std::string(20 - std::min<std::size_t>(digits.size(), 20), '0') +
         digits + std::string(kJournalSuffix);
}

std::optional<std::uint64_t> parse_journal_name(const std::string& name) {
  if (name.size() <= kJournalPrefix.size() + kJournalSuffix.size() ||
      name.compare(0, kJournalPrefix.size(), kJournalPrefix) != 0 ||
      name.compare(name.size() - kJournalSuffix.size(),
                   kJournalSuffix.size(), kJournalSuffix) != 0) {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(kJournalPrefix.size(),
                  name.size() - kJournalPrefix.size() - kJournalSuffix.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::vector<std::uint64_t> list_journals(const std::string& dir) {
  std::vector<std::uint64_t> bases;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto base = parse_journal_name(entry.path().filename().string());
    if (base.has_value()) bases.push_back(*base);
  }
  std::sort(bases.begin(), bases.end());
  return bases;
}

}  // namespace

std::string LogDir::journal_path_(std::uint64_t base_lsn) const {
  return config_.dir + "/" + journal_name(base_lsn);
}

util::Result<LogDir> LogDir::open(const Config& config,
                                  Recovered* recovered) {
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    return util::fail(ErrorCode::kUnavailable,
                      "cannot create storage dir '" + config.dir +
                          "': " + ec.message());
  }

  LogDir log(config);
  Recovered rec;
  RPROXY_ASSIGN_OR_RETURN(rec.snapshot, log.snapshots_.load_latest());
  const std::uint64_t covered =
      rec.snapshot.has_value() ? rec.snapshot->lsn : 0;

  // Replay every journal above the snapshot (normally exactly one; more
  // only if a crash interrupted compaction).  A torn tail is legal only
  // in the final file — anything cut short earlier would orphan the
  // records that follow it.
  std::vector<std::uint64_t> bases = list_journals(log.config_.dir);
  std::vector<std::uint64_t> live;
  for (const std::uint64_t base : bases) {
    if (base > covered) live.push_back(base);
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    RPROXY_ASSIGN_OR_RETURN(JournalReader::Scan scan,
                            JournalReader::read(log.journal_path_(live[i])));
    if (scan.tail_truncated && i + 1 < live.size()) {
      return util::fail(ErrorCode::kParseError,
                        "journal '" + log.journal_path_(live[i]) +
                            "' is corrupt mid-sequence (torn tail with "
                            "later journals present)");
    }
    rec.tail_truncated = rec.tail_truncated || scan.tail_truncated;
    for (JournalRecord& record : scan.records) {
      rec.tail.push_back(std::move(record));
    }
  }

  if (live.empty()) {
    // Fresh directory, or a crash landed between snapshot publication and
    // journal rotation: start a new journal right after the snapshot.
    RPROXY_ASSIGN_OR_RETURN(
        JournalWriter journal,
        JournalWriter::create(log.journal_path_(covered + 1), covered + 1,
                              log.config_.journal));
    log.journal_ = std::move(journal);
  } else {
    RPROXY_ASSIGN_OR_RETURN(
        JournalWriter journal,
        JournalWriter::open(log.journal_path_(live.back()),
                            log.config_.journal));
    log.journal_ = std::move(journal);
  }

  // Journals fully covered by the snapshot are garbage; sweep them (and
  // any stray .tmp) now that recovery no longer needs the directory
  // listing to be stable.
  for (const std::uint64_t base : bases) {
    if (base <= covered) {
      std::error_code rm_ec;
      std::filesystem::remove(log.journal_path_(base), rm_ec);
    }
  }
  log.snapshots_.prune_keep_latest();

  if (recovered != nullptr) *recovered = std::move(rec);
  return log;
}

util::Result<std::uint64_t> LogDir::append(std::uint16_t type,
                                           util::BytesView payload) {
  return journal_->append(type, payload);
}

util::Status LogDir::sync() { return journal_->sync(); }

util::Status LogDir::commit(std::uint64_t lsn) {
  std::shared_lock lock(*rotate_lock_);
  return journal_->commit(lsn);
}

JournalWriter::GroupStats LogDir::group_stats() const {
  std::shared_lock lock(*rotate_lock_);
  return journal_->group_stats();
}

std::uint64_t LogDir::durable_lsn() const {
  std::shared_lock lock(*rotate_lock_);
  return journal_->durable_lsn();
}

util::Result<LogDir::TailRead> LogDir::read_committed(
    std::uint64_t from_lsn, std::size_t max_records) const {
  // Shared rotation lock: a concurrent checkpoint() must not replace the
  // active journal or delete a file out from under the read.  Appends
  // need no coordination — the cap at durable_lsn keeps the read inside
  // the fully-written, fsynced prefix.
  std::shared_lock lock(*rotate_lock_);
  TailRead out;
  if (from_lsn == 0) from_lsn = 1;
  if (from_lsn >= journal_->base_lsn()) {
    // The steady state: the active journal's frame index locates exactly
    // the frames to ship.
    RPROXY_ASSIGN_OR_RETURN(
        out.durable_lsn,
        journal_->read_durable(from_lsn, max_records, &out.records));
    return out;
  }
  // Below the active journal: the records, if any survive, sit in files
  // an interrupted compaction left behind.  Scan the directory for them.
  out.durable_lsn = journal_->durable_lsn();
  const std::vector<std::uint64_t> bases = list_journals(config_.dir);
  if (bases.empty() || bases.front() > from_lsn) {
    return util::fail(ErrorCode::kNotFound,
                      "journal records below LSN " +
                          std::to_string(bases.empty() ? out.durable_lsn + 1
                                                       : bases.front()) +
                          " were compacted; bootstrap from the snapshot");
  }
  std::uint64_t next = from_lsn;  // the LSN the read owes next
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (next > out.durable_lsn || out.records.size() >= max_records) break;
    // File i covers [bases[i], bases[i+1]); skip files entirely below the
    // requested start.
    if (i + 1 < bases.size() && bases[i + 1] <= next) continue;
    RPROXY_ASSIGN_OR_RETURN(JournalReader::Scan scan,
                            JournalReader::read(journal_path_(bases[i])));
    for (JournalRecord& record : scan.records) {
      if (record.lsn < next) continue;
      if (record.lsn != next || next > out.durable_lsn ||
          out.records.size() >= max_records) {
        break;
      }
      out.records.push_back(std::move(record));
      next += 1;
    }
    // A file that ends short of the next one's base lost durable records
    // (a bad frame ends its scan); later files cannot close the gap.
    if (i + 1 < bases.size() && next < bases[i + 1]) break;
  }
  // As in JournalWriter::read_durable: the frames before the gap are
  // returned, and a read that starts at it fails.
  if (out.records.empty() && next <= out.durable_lsn && max_records > 0) {
    return util::fail(ErrorCode::kInternal,
                      "journal records at LSN " + std::to_string(next) +
                          " in '" + config_.dir +
                          "' are durable but unreadable");
  }
  return out;
}

util::Status LogDir::checkpoint(util::BytesView sealed_snapshot) {
  // Exclude committers for the whole rotation: a thread parked on the old
  // journal's barrier must not see its writer destroyed underneath it.
  // Their records are covered either way — the snapshot published below
  // includes everything appended so far.
  std::unique_lock rotation(*rotate_lock_);
  // Make everything the snapshot covers durable before publishing it —
  // the snapshot asserts "state through LSN N", so N must be on disk.
  RPROXY_RETURN_IF_ERROR(journal_->sync());
  const std::uint64_t covered = journal_->next_lsn() - 1;
  RPROXY_RETURN_IF_ERROR(snapshots_.save(covered, sealed_snapshot));
  // An empty active journal is already positioned right after `covered`
  // (e.g. two checkpoints in a row); rotating would collide with itself.
  const bool already_rotated =
      journal_->path() == journal_path_(covered + 1);
  if (!already_rotated) {
    // Rotate: new journal starting after the snapshot, then drop the old
    // file (every record in it is <= covered).
    const std::string old_path = journal_->path();
    RPROXY_ASSIGN_OR_RETURN(
        JournalWriter journal,
        JournalWriter::create(journal_path_(covered + 1), covered + 1,
                              config_.journal));
    journal_ = std::move(journal);
    std::error_code ec;
    std::filesystem::remove(old_path, ec);
  }
  snapshots_.prune_keep_latest();
  return util::Status::ok();
}

}  // namespace rproxy::storage
