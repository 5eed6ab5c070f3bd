// Accept-once enforcement (§7.7).
//
// "Any subsequent proxy from the same grantor bearing the same identifier
// and received by the end-server within the expiration time of the first
// proxy is rejected."  Identifiers are scoped per grantor — two different
// grantors may both use check number 7.  Thread-safe.
#pragma once

#include "kdc/replay_cache.hpp"
#include "util/names.hpp"

namespace rproxy::core {

class AcceptOnceCache {
 public:
  /// Rejects with kReplay if (grantor, identifier) was accepted before and
  /// has not yet expired; otherwise remembers it until `expires_at`.
  [[nodiscard]] util::Status check_and_insert(const PrincipalName& grantor,
                                              std::uint64_t identifier,
                                              util::TimePoint expires_at,
                                              util::TimePoint now);

  /// Peek without inserting (used by accounting servers to pre-validate).
  [[nodiscard]] bool seen(const PrincipalName& grantor,
                          std::uint64_t identifier,
                          util::TimePoint now) const;

  [[nodiscard]] std::size_t size() const { return cache_.size(); }

 private:
  static util::Bytes key_(const PrincipalName& grantor,
                          std::uint64_t identifier);

  kdc::ReplayCache cache_;
};

}  // namespace rproxy::core
