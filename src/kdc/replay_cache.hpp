// Replay cache.
//
// Authenticators and timestamp-mode proofs must be single-use within their
// freshness window.  This cache remembers each item until a caller-supplied
// expiry and rejects repeats.
//
// The key is (expires_at, SHA-256 of the item), held in one ordered set:
// lookups are a find, and a purge erases from the front while the earliest
// expiry has passed, touching only what it removes.  One node per entry
// keeps the cache as small as a plain digest map (80 bytes per entry); a
// second, expiry-ordered index (util::ExpiringTable) would double that.
// Putting the expiry in the key is sound because every caller derives it,
// by one rule per cache, from a timestamp the item itself authenticates:
// the same bytes replayed hit the same key, and a copy with a shifted
// timestamp misses it and then fails its proof check.
#pragma once

#include <mutex>
#include <set>
#include <utility>

#include "crypto/digest.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace rproxy::kdc {

class ReplayCache {
 public:
  /// Rejects with kReplay if `item` was seen before with this `expires_at`
  /// and that expiry has not passed; otherwise remembers it until
  /// `expires_at`.  An entry is rejected through its expiry instant and
  /// purged one tick after.  Precondition: `expires_at` is derived from a
  /// timestamp that `item` authenticates (see the file comment).
  [[nodiscard]] util::Status check_and_insert(util::BytesView item,
                                              util::TimePoint expires_at,
                                              util::TimePoint now);

  /// Drops entries whose expiry has passed.
  void purge(util::TimePoint now);

  [[nodiscard]] std::size_t size() const;

 private:
  void purge_locked_(util::TimePoint now);

  mutable std::mutex mutex_;
  std::set<std::pair<util::TimePoint, crypto::Digest>> seen_;
};

}  // namespace rproxy::kdc
