#include "kdc/replay_cache.hpp"

namespace rproxy::kdc {

util::Status ReplayCache::check_and_insert(util::BytesView item,
                                           util::TimePoint expires_at,
                                           util::TimePoint now) {
  std::lock_guard lock(mutex_);
  purge_locked_(now);
  if (!seen_.emplace(expires_at, crypto::sha256(item)).second) {
    return util::fail(util::ErrorCode::kReplay, "item seen before");
  }
  return util::Status::ok();
}

void ReplayCache::purge(util::TimePoint now) {
  std::lock_guard lock(mutex_);
  purge_locked_(now);
}

void ReplayCache::purge_locked_(util::TimePoint now) {
  while (!seen_.empty() && seen_.begin()->first < now) {
    seen_.erase(seen_.begin());
  }
}

std::size_t ReplayCache::size() const {
  std::lock_guard lock(mutex_);
  return seen_.size();
}

}  // namespace rproxy::kdc
