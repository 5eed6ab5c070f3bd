// Client side of the three workloads: the request inputs generated before
// timing, the next protocol step when a reply arrives, and the
// correctness gates run after timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "accounting/check.hpp"
#include "core/proxy.hpp"
#include "driver/deployment.hpp"
#include "driver/plan.hpp"

namespace e2e {

enum class Phase { kClosed = 0, kOpen = 1 };

/// One request frame as sent: u32 big-endian length, then the envelope.
struct Request {
  rp::util::Bytes frame;
  std::uint64_t key = 0;  ///< envelope_key(), for joining traced spans
};

/// What an op does next once a reply arrives.
struct StepResult {
  bool done = true;
  bool ok = false;
  Request next;  ///< the following request when !done
};

[[nodiscard]] Request make_request(const rp::net::Envelope& e);

class Workload {
 public:
  Workload(const Plan& plan, Deployment& deployment);

  /// Generates every op's inputs: chains, timestamp-mode proofs, checks
  /// and first request frames.  Runs before timing on `threads` threads.
  void generate(unsigned threads);

  [[nodiscard]] const Request& first_request(Phase phase,
                                             std::size_t i) const {
    return first_[static_cast<int>(phase)][i];
  }
  [[nodiscard]] std::size_t pool_size(Phase phase) const {
    return first_[static_cast<int>(phase)].size();
  }
  [[nodiscard]] OpKind kind(Phase phase, std::size_t i) const;

  /// Handles the reply to step `step` of op `i`.  Thread-safe across ops.
  [[nodiscard]] StepResult on_reply(Phase phase, std::size_t i, int step,
                                    const rp::net::Envelope& reply);

  /// Correctness gates.  Call with the deployment stopped.  Across both
  /// phases, `ok_ops` ops completed successfully, `ok_writes` of them
  /// write-class, and group commits covered `committed` journal records
  /// (a counter delta; only the ledger gate reads it).
  [[nodiscard]] rp::util::Status check(std::uint64_t ok_ops,
                                       std::uint64_t ok_writes,
                                       double committed);

  /// Why the first failed op failed; empty while none has.
  [[nodiscard]] std::string first_error() const {
    std::lock_guard lock(error_mutex_);
    return first_error_;
  }

  /// Ed25519 signatures the driver made while serving replies.
  [[nodiscard]] std::uint64_t driver_signs() const {
    return driver_signs_.load();
  }

 private:
  void generate_authz_(unsigned threads);
  void generate_clearing_(unsigned threads);
  [[nodiscard]] const PlannedOp& op_(Phase phase, std::size_t i) const;
  [[nodiscard]] Request challenge_request_(const std::string& from,
                                           const std::string& to) const;
  [[nodiscard]] StepResult second_step_(Phase phase, std::size_t i,
                                        const rp::net::Envelope& reply);
  [[nodiscard]] rp::util::Status check_authz_(std::uint64_t ok_ops);
  [[nodiscard]] rp::util::Status check_ledger_(std::uint64_t ok_writes,
                                              double committed);
  [[nodiscard]] rp::util::Status check_clearing_(std::uint64_t ok_ops);
  [[nodiscard]] StepResult failed_(const rp::net::Envelope& reply,
                                   const char* what);

  const Plan& plan_;
  Deployment& d_;
  std::vector<Request> first_[2];
  std::vector<std::string> files_;             ///< authz: expected replies
  std::vector<rp::core::Proxy> chains_;        ///< authz
  std::vector<rp::accounting::Check> checks_[2];  ///< clearing, per op
  std::atomic<std::uint64_t> driver_signs_{0};
  std::atomic<std::uint64_t> bad_replies_{0};
  mutable std::mutex error_mutex_;
  std::string first_error_;
};

}  // namespace e2e
