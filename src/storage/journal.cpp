#include "storage/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>

#include "storage/crc32c.hpp"

namespace rproxy::storage {

using util::ErrorCode;

namespace {

/// "RPJ1": rproxy journal, format 1.
constexpr std::uint32_t kMagic = 0x52504A31u;
constexpr std::size_t kFileHeaderSize = 4 + 4 + 8 + 4;  // magic ver lsn crc
constexpr std::size_t kFrameHeaderSize = 4 + 2 + 4;     // len type crc

void put_u32(util::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u16(util::Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u64(util::Bytes& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t{p[0]} << 8) |
                                    std::uint16_t{p[1]});
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | std::uint64_t{get_u32(p + 4)};
}

util::Bytes encode_file_header(std::uint64_t base_lsn) {
  util::Bytes header;
  header.reserve(kFileHeaderSize);
  put_u32(header, kMagic);
  put_u32(header, 1);  // format version
  put_u64(header, base_lsn);
  put_u32(header, crc32c({header.data(), header.size()}));
  return header;
}

/// CRC input of a frame: the length and type octets followed by the
/// payload, i.e. everything except the CRC field itself.
std::uint32_t frame_crc(std::uint32_t len, std::uint16_t type,
                        util::BytesView payload) {
  util::Bytes head;
  head.reserve(6);
  put_u32(head, len);
  put_u16(head, type);
  return crc32c(payload, crc32c({head.data(), head.size()}));
}

util::Bytes encode_frame(std::uint16_t type, util::BytesView payload) {
  util::Bytes frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  put_u32(frame, len);
  put_u16(frame, type);
  put_u32(frame, frame_crc(len, type, payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// One intact frame, decoded in place: `payload` views the buffer it was
/// read from.
struct Frame {
  std::uint16_t type = 0;
  util::BytesView payload;
  [[nodiscard]] std::size_t size() const {
    return kFrameHeaderSize + payload.size();
  }
};

/// Decodes the frame at the start of `data`; nullopt when it is torn or
/// corrupt (shorter than its header, a length beyond the data or
/// kMaxJournalRecordBytes, or a CRC mismatch).  Both readers stop at the
/// first such frame: frames are appended in order and each is a single
/// write, so nothing after a bad frame can be trusted (its very length
/// prefix may be garbage).
std::optional<Frame> decode_frame(util::BytesView data) {
  if (data.size() < kFrameHeaderSize) return std::nullopt;
  const std::uint32_t len = get_u32(data.data());
  const std::uint16_t type = get_u16(data.data() + 4);
  const std::uint32_t crc = get_u32(data.data() + 6);
  if (len > kMaxJournalRecordBytes || len > data.size() - kFrameHeaderSize) {
    return std::nullopt;
  }
  const util::BytesView payload = data.subspan(kFrameHeaderSize, len);
  if (frame_crc(len, type, payload) != crc) return std::nullopt;
  return Frame{type, payload};
}

util::Status io_fail(const std::string& what, const std::string& path) {
  return util::fail(ErrorCode::kUnavailable,
                    what + " '" + path + "': " + std::strerror(errno));
}

/// write(2) with EINTR retry and short-write continuation.
util::Status write_all(int fd, util::BytesView data,
                       const std::string& path) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_fail("journal write", path);
    }
    off += static_cast<std::size_t>(n);
  }
  return util::Status::ok();
}

util::Result<util::Bytes> read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_fail("journal open", path);
  util::Bytes data;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return io_fail("journal read", path);
    }
    if (n == 0) break;
    data.insert(data.end(), buf, buf + n);
  }
  ::close(fd);
  return data;
}

}  // namespace

util::Result<JournalReader::Scan> JournalReader::read(
    const std::string& path) {
  RPROXY_ASSIGN_OR_RETURN(util::Bytes data, read_whole_file(path));
  if (data.size() < kFileHeaderSize) {
    return util::fail(ErrorCode::kParseError,
                      "journal '" + path + "' shorter than its header");
  }
  if (get_u32(data.data()) != kMagic) {
    return util::fail(ErrorCode::kParseError,
                      "'" + path + "' is not a journal (bad magic)");
  }
  const std::uint32_t version = get_u32(data.data() + 4);
  if (version != 1) {
    return util::fail(ErrorCode::kParseError,
                      "journal '" + path + "' has unknown format version " +
                          std::to_string(version));
  }
  if (crc32c({data.data(), kFileHeaderSize - 4}) !=
      get_u32(data.data() + kFileHeaderSize - 4)) {
    return util::fail(ErrorCode::kParseError,
                      "journal '" + path + "' header checksum mismatch");
  }

  Scan scan;
  scan.base_lsn = get_u64(data.data() + 8);
  std::size_t pos = kFileHeaderSize;
  // Walk frames until the data runs out or a frame fails its checks;
  // either way the rest of the file is a torn tail.
  while (pos < data.size()) {
    const std::optional<Frame> frame =
        decode_frame(util::BytesView(data).subspan(pos));
    if (!frame.has_value()) {
      scan.tail_truncated = true;
      break;
    }
    scan.records.push_back({scan.base_lsn + scan.records.size(), frame->type,
                            util::to_bytes(frame->payload)});
    pos += frame->size();
  }
  scan.valid_bytes = pos;
  return scan;
}

util::Result<JournalWriter> JournalWriter::create(const std::string& path,
                                                  std::uint64_t base_lsn,
                                                  Config config) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return io_fail("journal create", path);
  const util::Bytes header = encode_file_header(base_lsn);
  util::Status written = write_all(fd, header, path);
  if (written.is_ok() && ::fsync(fd) != 0) {
    written = io_fail("journal fsync", path);
  }
  if (!written.is_ok()) {
    ::close(fd);
    return written;
  }
  JournalWriter writer;
  writer.path_ = path;
  writer.fd_ = fd;
  writer.read_fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (writer.read_fd_ < 0) return io_fail("journal open", path);
  writer.base_lsn_ = base_lsn;
  writer.next_lsn_ = base_lsn;
  writer.config_ = config;
  writer.frame_offsets_.push_back(kFileHeaderSize);
  writer.commit_ = std::make_unique<CommitState>();
  writer.commit_->durable_lsn = base_lsn - 1;
  return writer;
}

util::Result<JournalWriter> JournalWriter::open(const std::string& path,
                                                Config config) {
  RPROXY_ASSIGN_OR_RETURN(JournalReader::Scan scan,
                          JournalReader::read(path));
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return io_fail("journal open", path);
  // Truncate the torn tail (if any) so new frames start on a clean
  // boundary, then append from there.
  if (::ftruncate(fd, static_cast<off_t>(scan.valid_bytes)) != 0) {
    const util::Status st = io_fail("journal truncate", path);
    ::close(fd);
    return st;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const util::Status st = io_fail("journal seek", path);
    ::close(fd);
    return st;
  }
  JournalWriter writer;
  writer.path_ = path;
  writer.fd_ = fd;
  writer.read_fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (writer.read_fd_ < 0) return io_fail("journal open", path);
  writer.base_lsn_ = scan.base_lsn;
  writer.next_lsn_ = scan.base_lsn + scan.records.size();
  writer.config_ = config;
  // Index the valid prefix the scan kept; a truncated tail is not in it.
  writer.frame_offsets_.reserve(scan.records.size() + 1);
  writer.frame_offsets_.push_back(kFileHeaderSize);
  for (const JournalRecord& record : scan.records) {
    writer.frame_offsets_.push_back(writer.frame_offsets_.back() +
                                    kFrameHeaderSize + record.payload.size());
  }
  // Records that survived the reopen scan count as durable: they were on
  // disk before this process existed.
  writer.commit_ = std::make_unique<CommitState>();
  writer.commit_->durable_lsn = writer.next_lsn_ - 1;
  return writer;
}

// Moves are only legal while no commit() is in flight (construction and
// LogDir rotation, both of which exclude concurrent committers).
JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(other.fd_),
      read_fd_(other.read_fd_),
      base_lsn_(other.base_lsn_),
      next_lsn_(other.next_lsn_),
      config_(other.config_),
      dead_(other.dead_.load()),
      frame_offsets_(std::move(other.frame_offsets_)),
      commit_(std::move(other.commit_)) {
  other.fd_ = -1;
  other.read_fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    if (read_fd_ >= 0) ::close(read_fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    read_fd_ = other.read_fd_;
    base_lsn_ = other.base_lsn_;
    next_lsn_ = other.next_lsn_;
    config_ = other.config_;
    dead_.store(other.dead_.load());
    frame_offsets_ = std::move(other.frame_offsets_);
    commit_ = std::move(other.commit_);
    other.fd_ = -1;
    other.read_fd_ = -1;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    if (!dead_.load()) ::fsync(fd_);
    ::close(fd_);
  }
  if (read_fd_ >= 0) ::close(read_fd_);
}

util::Result<std::uint64_t> JournalWriter::append(std::uint16_t type,
                                                  util::BytesView payload) {
  if (dead_.load() || fd_ < 0) {
    return util::fail(ErrorCode::kUnavailable,
                      "journal '" + path_ + "' is dead (crashed)");
  }
  if (payload.size() > kMaxJournalRecordBytes) {
    return util::fail(ErrorCode::kInternal, "journal record too large");
  }
  const util::Bytes frame = encode_frame(type, payload);
  std::size_t admitted = frame.size();
  if (config_.crash != nullptr) {
    admitted = config_.crash->admit(frame.size());
  }
  const util::Status written = write_all(fd_, {frame.data(), admitted}, path_);
  if (!written.is_ok()) {
    // Part of the frame may be on disk, so the file no longer ends where
    // the frame index says: accept no more frames.
    dead_.store(true);
    return written;
  }
  if (admitted < frame.size()) {
    // Simulated kill mid-write: the torn frame is on disk, the record is
    // NOT durable, and this "process" no longer accepts work.
    dead_.store(true);
    return util::fail(ErrorCode::kUnavailable,
                      "journal '" + path_ + "' crashed mid-append (write " +
                          std::to_string(config_.crash->writes_seen()) +
                          ")");
  }
  const std::uint64_t lsn = next_lsn_;
  next_lsn_ += 1;
  // The commit leader and read_durable read the index from other threads;
  // publish the fully-written frame under the barrier mutex.
  std::lock_guard lock(commit_->mutex);
  frame_offsets_.push_back(frame_offsets_.back() + frame.size());
  return lsn;
}

util::Status JournalWriter::fsync_now_() {
  if (config_.crash != nullptr && !config_.crash->admit_fsync()) {
    dead_.store(true);
    return util::fail(ErrorCode::kUnavailable,
                      "journal '" + path_ + "' fsync failed (crash point, "
                      "sync " + std::to_string(config_.crash->syncs_seen()) +
                          ")");
  }
  if (::fsync(fd_) != 0) {
    dead_.store(true);
    return io_fail("journal fsync", path_);
  }
  return util::Status::ok();
}

util::Status JournalWriter::sync() { return commit(next_lsn_ - 1); }

util::Status JournalWriter::commit(std::uint64_t lsn) {
  if (fd_ < 0) {
    return util::fail(ErrorCode::kUnavailable,
                      "journal '" + path_ + "' is dead (crashed)");
  }
  CommitState& cs = *commit_;
  std::unique_lock lock(cs.mutex);
  for (;;) {
    // Sticky failure first: once any barrier's fsync failed, EVERY parked
    // appender and every later arrival gets the error, because none of
    // their records can be promised durable any more.
    if (!cs.error.is_ok()) return cs.error;
    if (dead_.load()) {
      return util::fail(ErrorCode::kUnavailable,
                        "journal '" + path_ + "' is dead (crashed)");
    }
    if (cs.durable_lsn >= lsn) return util::Status::ok();
    if (!cs.sync_in_progress) break;
    cs.stats.waits += 1;
    cs.cv.wait(lock);
  }
  // Become the leader: one fsync covers every record fully appended
  // before it starts — ours included, since our append() returned before
  // this call.
  cs.sync_in_progress = true;
  std::uint64_t target = appended_lsn_locked_();
  lock.unlock();
  // Bounded accumulation: appenders already racing toward their own
  // commit() get a moment to land so this flush covers them too (on a
  // loaded single core they otherwise never run before the leader
  // reaches the disk, and groups stay small).  Exits the moment the
  // append stream quiesces — a lone committer pays a few yields (~µs)
  // against the fsync it was about to do anyway.
  for (int round = 0; round < 4; ++round) {
    std::this_thread::yield();
    std::uint64_t now = 0;
    {
      std::lock_guard relock(cs.mutex);
      now = appended_lsn_locked_();
    }
    if (now == target) break;
    target = now;
  }
  const util::Status synced = fsync_now_();
  lock.lock();
  cs.sync_in_progress = false;
  if (!synced.is_ok()) {
    cs.error = synced;
  } else {
    // Only a leader moves durable_lsn, and the append index only grows,
    // so the target is never behind it.
    const std::uint64_t covered = target - cs.durable_lsn;
    cs.stats.fsyncs += 1;
    cs.stats.committed += covered;
    cs.stats.max_group = std::max(cs.stats.max_group, covered);
    cs.durable_lsn = target;
  }
  cs.cv.notify_all();
  return synced;
}

JournalWriter::GroupStats JournalWriter::group_stats() const {
  std::lock_guard lock(commit_->mutex);
  return commit_->stats;
}

std::uint64_t JournalWriter::durable_lsn() const {
  std::lock_guard lock(commit_->mutex);
  return commit_->durable_lsn;
}

util::Result<std::uint64_t> JournalWriter::read_durable(
    std::uint64_t from_lsn, std::size_t max_records,
    std::vector<JournalRecord>* out) const {
  // Only the index lookup runs under the barrier mutex; appends and
  // commits proceed during the pread.  Every frame at or below the
  // watermark was fully written before its fsync, so the bytes read are
  // stable.
  std::uint64_t durable = 0;
  std::uint64_t last = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  {
    std::lock_guard lock(commit_->mutex);
    durable = commit_->durable_lsn;
    if (from_lsn < base_lsn_ || from_lsn > durable || max_records == 0) {
      return durable;
    }
    last = durable - from_lsn < max_records ? durable
                                             : from_lsn + max_records - 1;
    begin = frame_offsets_[from_lsn - base_lsn_];
    end = frame_offsets_[last - base_lsn_ + 1];
  }
  util::Bytes data(end - begin);
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::pread(read_fd_, data.data() + got, data.size() - got,
                              static_cast<off_t>(begin + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_fail("journal read", path_);
    }
    if (n == 0) break;  // shorter than indexed: the decoder sees a bad frame
    got += static_cast<std::size_t>(n);
  }
  const util::BytesView frames = util::BytesView(data).first(got);
  out->reserve(out->size() + (last - from_lsn + 1));
  std::size_t pos = 0;
  for (std::uint64_t lsn = from_lsn; lsn <= last; ++lsn) {
    const std::optional<Frame> frame = decode_frame(frames.subspan(pos));
    if (!frame.has_value()) {
      // Fsynced bytes that fail their checks are corruption, not a torn
      // tail: hand back what precedes them, and fail a read that starts
      // at them rather than report an empty tail forever.
      if (lsn > from_lsn) break;
      return util::fail(ErrorCode::kInternal,
                        "journal '" + path_ + "': durable frame at LSN " +
                            std::to_string(lsn) + " is corrupt");
    }
    out->push_back({lsn, frame->type, util::to_bytes(frame->payload)});
    pos += frame->size();
  }
  return durable;
}

}  // namespace rproxy::storage
