// Expiry-ordered table.
//
// Servers remember things until they expire: check numbers "until the
// expiration time on the check" (§4), accept-once identifiers within the
// first proxy's lifetime (§7.7), outstanding challenges, completed-operation
// replies and issued grants.  This table is that one mechanism: entries
// keyed by `Key` that die at their `expires_at`, plus those keys in expiry
// order, so a purge touches only the entries it removes.
//
// Not synchronized: each owner guards its table with its own lock.
#pragma once

#include <map>
#include <set>
#include <utility>

#include "util/clock.hpp"

namespace rproxy::util {

/// `Value` carries its own `expires_at` (a TimePoint).  The expiry order is
/// derived state: put() maintains it, so a table rebuilt by put() (a
/// snapshot restore) has it too.  Iteration is in key order.
template <typename Key, typename Value>
class ExpiringTable {
 public:
  using const_iterator = typename std::map<Key, Value>::const_iterator;
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] const_iterator find(const Key& key) const {
    return entries_.find(key);
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Inserts or replaces the entry under `key`.
  void put(const Key& key, Value value) {
    erase(key);
    by_expiry_.emplace(value.expires_at, key);
    entries_.emplace(key, std::move(value));
  }
  void erase(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    by_expiry_.erase({it->second.expires_at, key});
    entries_.erase(it);
  }
  /// Erases every entry `pred(key, value)` holds for; walks the whole
  /// table.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (pred(it->first, it->second)) {
        by_expiry_.erase({it->second.expires_at, it->first});
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }
  /// Erases every entry with expires_at < now, earliest first, each after
  /// passing its value to `on_expire`.  An entry lives through its expiry
  /// instant.
  template <typename OnExpire>
  void purge(TimePoint now, OnExpire on_expire) {
    while (!by_expiry_.empty() && by_expiry_.begin()->first < now) {
      const auto it = entries_.find(by_expiry_.begin()->second);
      on_expire(it->second);
      entries_.erase(it);
      by_expiry_.erase(by_expiry_.begin());
    }
  }
  void purge(TimePoint now) {
    purge(now, [](const Value&) {});
  }
  /// Erases the entry that expires first (on a tie, the smallest key).
  void evict_earliest() {
    if (by_expiry_.empty()) return;
    entries_.erase(by_expiry_.begin()->second);
    by_expiry_.erase(by_expiry_.begin());
  }

 private:
  std::map<Key, Value> entries_;
  std::set<std::pair<TimePoint, Key>> by_expiry_;
};

}  // namespace rproxy::util
