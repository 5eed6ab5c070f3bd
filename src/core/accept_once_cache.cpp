#include "core/accept_once_cache.hpp"

#include "wire/encoder.hpp"

namespace rproxy::core {

util::Bytes AcceptOnceCache::key_(const PrincipalName& grantor,
                                  std::uint64_t identifier) {
  wire::Encoder enc;
  enc.str(grantor);
  enc.u64(identifier);
  return enc.take();
}

util::Status AcceptOnceCache::check_and_insert(const PrincipalName& grantor,
                                               std::uint64_t identifier,
                                               util::TimePoint expires_at,
                                               util::TimePoint now) {
  return cache_.check_and_insert(key_(grantor, identifier), expires_at, now);
}

bool AcceptOnceCache::seen(const PrincipalName& grantor,
                           std::uint64_t identifier,
                           util::TimePoint now) const {
  return cache_.contains(key_(grantor, identifier), now);
}

}  // namespace rproxy::core
