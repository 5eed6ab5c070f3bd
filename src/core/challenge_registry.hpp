// Single-use challenge registry.
//
// Servers hand out a fresh nonce per presentation and consume it on use —
// the replay barrier for possession proofs (§2's "server challenge").
// Shared by end-servers and accounting servers.  Thread-safe.
#pragma once

#include <mutex>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/expiring_table.hpp"
#include "util/status.hpp"
#include "wire/decoder.hpp"
#include "wire/encoder.hpp"

namespace rproxy::core {

/// Payload of a kPresentChallengeRequest: empty.
struct ChallengeRequest {
  void encode(wire::Encoder&) const {}
  static ChallengeRequest decode(wire::Decoder&) { return {}; }
};

class ChallengeRegistry {
 public:
  explicit ChallengeRegistry(util::Duration ttl = 2 * util::kMinute)
      : ttl_(ttl) {}

  /// An issued challenge; also the kPresentChallengeReply payload.
  struct Challenge {
    std::uint64_t id = 0;
    util::Bytes nonce;

    void encode(wire::Encoder& enc) const {
      enc.u64(id);
      enc.bytes(nonce);
    }
    static Challenge decode(wire::Decoder& dec) {
      Challenge c;
      c.id = dec.u64();
      c.nonce = dec.bytes();
      return c;
    }
  };

  /// Issues a fresh challenge valid for the registry's TTL.
  [[nodiscard]] Challenge issue(util::TimePoint now);

  /// Consumes a challenge: returns its nonce exactly once; later attempts
  /// (or unknown/expired ids) fail.
  [[nodiscard]] util::Result<util::Bytes> take(std::uint64_t id,
                                               util::TimePoint now);

  [[nodiscard]] std::size_t outstanding() const;

 private:
  struct Outstanding {
    util::Bytes nonce;
    util::TimePoint expires_at = 0;
  };

  mutable std::mutex mutex_;
  util::Duration ttl_;
  util::ExpiringTable<std::uint64_t, Outstanding> challenges_;
};

}  // namespace rproxy::core
