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
  std::lock_guard lock(mutex_);
  if (sink_.has_value()) {
    const util::Bytes payload = wire::encode_to_bytes(record);
    if (!sink_->append(kAuditSinkRecordType, payload).is_ok()) {
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

util::Status AuditLog::open_sink(const std::string& path,
                                 storage::FsyncPolicy policy) {
  storage::JournalWriter::Config config;
  config.fsync_policy = policy;
  std::lock_guard lock(mutex_);
  auto writer = std::filesystem::exists(path)
                    ? storage::JournalWriter::open(path, config)
                    : storage::JournalWriter::create(path, 1, config);
  RPROXY_RETURN_IF_ERROR(writer.status());
  sink_.emplace(std::move(writer.value()));
  has_sink_.store(true);
  return util::Status::ok();
}

util::Status AuditLog::sync_sink() {
  std::lock_guard lock(mutex_);
  if (!sink_.has_value()) return util::Status::ok();
  return sink_->sync();
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
