// Replay cache.
//
// Authenticators must be single-use within their freshness window, and the
// accounting server must remember check numbers "until the expiration time
// on the check" (§4).  Both needs are served by this cache: it remembers a
// digest of each item until a caller-supplied expiry and rejects repeats.
#pragma once

#include <map>
#include <mutex>

#include "crypto/digest.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace rproxy::kdc {

class ReplayCache {
 public:
  /// Rejects with kReplay if `item` was seen before (and its remembered
  /// expiry has not passed); otherwise remembers it until `expires_at`.
  /// Expired entries are purged opportunistically.
  [[nodiscard]] util::Status check_and_insert(util::BytesView item,
                                              util::TimePoint expires_at,
                                              util::TimePoint now);

  /// True if `item` is remembered at `now`.  Same boundary as
  /// check_and_insert: an entry counts through its expiry instant, not one
  /// tick after.  Inserts nothing.
  [[nodiscard]] bool contains(util::BytesView item, util::TimePoint now) const;

  /// Drops entries whose expiry has passed.
  void purge(util::TimePoint now);

  [[nodiscard]] std::size_t size() const;

 private:
  void purge_locked_(util::TimePoint now);

  mutable std::mutex mutex_;
  std::map<crypto::Digest, util::TimePoint> seen_;
  util::TimePoint last_purge_ = 0;
};

}  // namespace rproxy::kdc
