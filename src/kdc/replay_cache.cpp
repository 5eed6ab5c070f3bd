#include "kdc/replay_cache.hpp"

namespace rproxy::kdc {

util::Status ReplayCache::check_and_insert(util::BytesView item,
                                           util::TimePoint expires_at,
                                           util::TimePoint now) {
  std::lock_guard lock(mutex_);
  // Amortized cleanup: a full sweep at most once per simulated second keeps
  // the cache from growing without bound in long-running servers.
  if (now - last_purge_ >= util::kSecond) purge_locked_(now);

  const crypto::Digest d = crypto::sha256(item);
  auto it = seen_.find(d);
  if (it != seen_.end()) {
    if (it->second >= now) {
      return util::fail(util::ErrorCode::kReplay, "item seen before");
    }
    seen_.erase(it);
  }
  seen_[d] = expires_at;
  return util::Status::ok();
}

bool ReplayCache::contains(util::BytesView item, util::TimePoint now) const {
  const crypto::Digest d = crypto::sha256(item);
  std::lock_guard lock(mutex_);
  auto it = seen_.find(d);
  return it != seen_.end() && it->second >= now;
}

void ReplayCache::purge(util::TimePoint now) {
  std::lock_guard lock(mutex_);
  purge_locked_(now);
}

void ReplayCache::purge_locked_(util::TimePoint now) {
  for (auto it = seen_.begin(); it != seen_.end();) {
    it = it->second < now ? seen_.erase(it) : std::next(it);
  }
  last_purge_ = now;
}

std::size_t ReplayCache::size() const {
  std::lock_guard lock(mutex_);
  return seen_.size();
}

}  // namespace rproxy::kdc
