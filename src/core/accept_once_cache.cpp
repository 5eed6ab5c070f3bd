#include "core/accept_once_cache.hpp"

namespace rproxy::core {

util::Status AcceptOnceCache::check_and_insert(const PrincipalName& grantor,
                                               std::uint64_t identifier,
                                               util::TimePoint expires_at,
                                               util::TimePoint now) {
  const std::pair<PrincipalName, std::uint64_t> key{grantor, identifier};
  std::lock_guard lock(mutex_);
  accepted_.purge(now);
  if (accepted_.contains(key)) {
    return util::fail(util::ErrorCode::kReplay, "item seen before");
  }
  accepted_.put(key, Accepted{expires_at});
  return util::Status::ok();
}

bool AcceptOnceCache::seen(const PrincipalName& grantor,
                           std::uint64_t identifier,
                           util::TimePoint now) const {
  std::lock_guard lock(mutex_);
  const auto it = accepted_.find({grantor, identifier});
  return it != accepted_.end() && it->second.expires_at >= now;
}

std::size_t AcceptOnceCache::size() const {
  std::lock_guard lock(mutex_);
  return accepted_.size();
}

}  // namespace rproxy::core
