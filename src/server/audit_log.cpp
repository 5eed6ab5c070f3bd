#include "server/audit_log.hpp"

#include <filesystem>

namespace rproxy::server {

void AuditRecord::encode(wire::Encoder& enc) const {
  enc.i64(time);
  enc.str(operation);
  enc.str(object);
  enc.str(authority);
  enc.u32(static_cast<std::uint32_t>(identities.size()));
  for (const PrincipalName& p : identities) enc.str(p);
  enc.u32(static_cast<std::uint32_t>(via.size()));
  for (const PrincipalName& p : via) enc.str(p);
  enc.boolean(allowed);
  enc.str(detail);
}

AuditRecord AuditRecord::decode(wire::Decoder& dec) {
  AuditRecord r;
  r.time = dec.i64();
  r.operation = dec.str();
  r.object = dec.str();
  r.authority = dec.str();
  const std::uint32_t identity_count = dec.u32();
  for (std::uint32_t i = 0; i < identity_count && dec.ok(); ++i) {
    r.identities.push_back(dec.str());
  }
  const std::uint32_t via_count = dec.u32();
  for (std::uint32_t i = 0; i < via_count && dec.ok(); ++i) {
    r.via.push_back(dec.str());
  }
  r.allowed = dec.boolean();
  r.detail = dec.str();
  return r;
}

void AuditLog::append(AuditRecord record) {
  std::shared_ptr<storage::JournalWriter> sink;
  std::uint64_t lsn = 0;
  {
    std::lock_guard lock(mutex_);
    if (sink_ != nullptr) {
      const util::Bytes payload = wire::encode_to_bytes(record);
      const util::Result<std::uint64_t> appended =
          sink_->append(kAuditSinkRecordType, payload);
      if (appended.is_ok()) {
        sink = sink_;
        lsn = appended.value();
      } else {
        sink_failures_ += 1;
      }
    }
    (record.allowed ? allowed_ : denied_) += 1;
    if (recent_.size() < kRecentCapacity) {
      recent_.push_back(std::move(record));
    } else {
      recent_[oldest_] = std::move(record);
      oldest_ = (oldest_ + 1) % kRecentCapacity;
    }
  }
  // Commit outside the lock, so concurrent deciders share one fsync.
  if (sink != nullptr && !sink->commit(lsn).is_ok()) {
    std::lock_guard lock(mutex_);
    sink_failures_ += 1;
  }
}

std::vector<AuditRecord> AuditLog::recent() const {
  std::lock_guard lock(mutex_);
  std::vector<AuditRecord> out;
  out.reserve(recent_.size());
  const auto oldest = recent_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  out.insert(out.end(), oldest, recent_.end());
  out.insert(out.end(), recent_.begin(), oldest);
  return out;
}

void AuditLog::clear() {
  std::lock_guard lock(mutex_);
  recent_.clear();
  oldest_ = 0;
  allowed_ = 0;
  denied_ = 0;
}

util::Status AuditLog::open_sink(const std::string& path) {
  std::lock_guard lock(mutex_);
  auto writer = std::filesystem::exists(path)
                    ? storage::JournalWriter::open(path, {})
                    : storage::JournalWriter::create(path, 1, {});
  RPROXY_RETURN_IF_ERROR(writer.status());
  sink_ = std::make_shared<storage::JournalWriter>(std::move(writer.value()));
  has_sink_.store(true);
  return util::Status::ok();
}

util::Result<std::vector<AuditRecord>> AuditLog::read_sink(
    const std::string& path) {
  RPROXY_ASSIGN_OR_RETURN(storage::JournalReader::Scan scan,
                          storage::JournalReader::read(path));
  std::vector<AuditRecord> records;
  for (const storage::JournalRecord& record : scan.records) {
    if (record.type != kAuditSinkRecordType) continue;
    RPROXY_ASSIGN_OR_RETURN(AuditRecord decoded,
                            wire::decode_from_bytes<AuditRecord>(
                                record.payload));
    records.push_back(std::move(decoded));
  }
  return records;
}

std::size_t AuditLog::allowed_count() const {
  std::lock_guard lock(mutex_);
  return allowed_;
}

std::size_t AuditLog::denied_count() const {
  std::lock_guard lock(mutex_);
  return denied_;
}

}  // namespace rproxy::server
