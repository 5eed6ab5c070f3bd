// Accept-once enforcement (§7.7).
//
// "Any subsequent proxy from the same grantor bearing the same identifier
// and received by the end-server within the expiration time of the first
// proxy is rejected."  Identifiers are scoped per grantor — two different
// grantors may both use check number 7.  Thread-safe.
#pragma once

#include <mutex>
#include <utility>

#include "util/expiring_table.hpp"
#include "util/names.hpp"
#include "util/status.hpp"

namespace rproxy::core {

class AcceptOnceCache {
 public:
  /// Rejects with kReplay if (grantor, identifier) was accepted before and
  /// has not yet expired; otherwise remembers it until `expires_at`.  An
  /// identifier is rejected through its expiry instant and accepted one
  /// tick after.
  [[nodiscard]] util::Status check_and_insert(const PrincipalName& grantor,
                                              std::uint64_t identifier,
                                              util::TimePoint expires_at,
                                              util::TimePoint now);

  /// Peek without inserting (used by accounting servers to pre-validate).
  /// Same boundary as check_and_insert.
  [[nodiscard]] bool seen(const PrincipalName& grantor,
                          std::uint64_t identifier,
                          util::TimePoint now) const;

  [[nodiscard]] std::size_t size() const;

 private:
  /// §7.7 rejects a different proxy with the same (grantor, identifier),
  /// whatever its expiry, so the key is the pair alone.
  struct Accepted {
    util::TimePoint expires_at = 0;
  };

  mutable std::mutex mutex_;
  util::ExpiringTable<std::pair<PrincipalName, std::uint64_t>, Accepted>
      accepted_;
};

}  // namespace rproxy::core
