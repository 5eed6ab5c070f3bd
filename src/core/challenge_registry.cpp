#include "core/challenge_registry.hpp"

#include "crypto/random.hpp"

namespace rproxy::core {

ChallengeRegistry::Challenge ChallengeRegistry::issue(util::TimePoint now) {
  std::lock_guard lock(mutex_);
  // Both issue() and take() purge, so a server that stops issuing (clients
  // switched to timestamp mode, or only retrying) still sheds abandoned
  // challenges.
  challenges_.purge(now);
  Challenge c;
  c.id = crypto::random_u64();
  c.nonce = crypto::random_bytes(32);
  challenges_.put(c.id, Outstanding{c.nonce, now + ttl_});
  return c;
}

util::Result<util::Bytes> ChallengeRegistry::take(std::uint64_t id,
                                                  util::TimePoint now) {
  std::lock_guard lock(mutex_);
  // Look up BEFORE purging so an expired-but-not-yet-purged challenge
  // still reports kExpired rather than "unknown".
  util::Result<util::Bytes> taken = util::fail(
      util::ErrorCode::kProtocolError, "unknown or already-used challenge");
  if (auto it = challenges_.find(id); it != challenges_.end()) {
    if (it->second.expires_at < now) {
      taken = util::fail(util::ErrorCode::kExpired, "challenge expired");
    } else {
      taken = it->second.nonce;
    }
    challenges_.erase(id);
  }
  challenges_.purge(now);
  return taken;
}

std::size_t ChallengeRegistry::outstanding() const {
  std::lock_guard lock(mutex_);
  return challenges_.size();
}

}  // namespace rproxy::core
