// Seeded logical plan of one workload run.
//
// The plan fixes everything the benchmark chooses: the population shape
// (chain depths and realizations, account owners), which principal, chain,
// account or check each op uses, and when each open-loop op is due.  It
// holds no key material: keys, session keys and proof nonces come from the
// system CSPRNG, as in a deployment.  digest() covers the whole plan, so
// two runs with one seed drive the same logical work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/digest.hpp"

namespace e2e {

enum class OpKind : std::uint8_t {
  kRead = 1,      ///< authz: timestamp-mode app read through a chain
  kTransfer = 2,  ///< ledger: challenge, then a signed transfer
  kQuery = 3,     ///< ledger: challenge, then a signed balance query
  kDeposit = 4,   ///< clearing: challenge, then a signed check deposit
};

/// Read class: authz reads and ledger queries; everything else writes.
[[nodiscard]] inline bool is_write(OpKind kind) {
  return kind == OpKind::kTransfer || kind == OpKind::kDeposit;
}

struct PlannedOp {
  OpKind kind = OpKind::kRead;
  /// authz: chain index; ledger: (source) account; clearing: payor account.
  std::uint32_t a = 0;
  /// ledger transfer: destination account; clearing: payee.
  std::uint32_t b = 0;
};

/// One bearer capability chain of the authz population.
struct ChainSpec {
  std::uint32_t user = 0;   ///< grantor
  std::uint32_t depth = 1;  ///< delegation hops, 1..4
  bool kerberos = true;     ///< ticket + HMAC links, else public-key
};

// Population sizes, fixed by the workload definitions.
inline constexpr std::uint32_t kAuthzUsers = 512;
inline constexpr std::uint32_t kAuthzChains = 4096;
inline constexpr std::uint32_t kLedgerPrincipals = 1024;
inline constexpr std::uint32_t kLedgerAccounts = 100000;
inline constexpr std::uint32_t kClearingPayors = 64;
inline constexpr std::uint32_t kClearingPayorAccounts = 4096;
inline constexpr std::uint32_t kClearingPayees = 64;

/// The load each workload is driven at, frozen with the benchmark.  The
/// open-loop rate is about half the peak the workload reached while the
/// host stole CPU; the closed-loop op pool holds pool_rate ops per second
/// of closed-loop time.
struct WorkloadLoad {
  const char* name;
  double rate;        ///< open-loop offered rate, ops/s
  unsigned inflight;  ///< closed-loop ops in flight
  double pool_rate;   ///< closed-loop nominal rate, ops/s
};
inline constexpr WorkloadLoad kWorkloads[] = {
    {"authz", 5000, 32, 48000},
    {"ledger", 1100, 32, 8500},
    {"clearing", 150, 16, 500},
};

/// The frozen load of `workload`; null when there is no such workload.
[[nodiscard]] const WorkloadLoad* find_workload(const std::string& name);

struct Plan {
  std::string workload;
  std::uint64_t seed = 0;
  /// authz: chain c authorizes reads of file c.
  std::vector<ChainSpec> chains;
  std::vector<std::uint32_t> file_sizes;
  /// Pool drawn by the closed-loop phase, in order.
  std::vector<PlannedOp> closed_ops;
  /// Open-loop ops and their due times (ns after the phase starts).
  std::vector<PlannedOp> open_ops;
  std::vector<std::int64_t> open_due_ns;

  [[nodiscard]] rproxy::crypto::Digest digest() const;
};

/// Builds the plan: `closed_ops` pooled ops for the closed loop, then
/// Poisson arrivals at `open_rate` per second for `open_seconds`.
[[nodiscard]] Plan make_plan(const std::string& workload, std::uint64_t seed,
                             std::size_t closed_ops, double open_rate,
                             double open_seconds);

}  // namespace e2e
