#include "driver/plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "crypto/random.hpp"
#include "wire/encoder.hpp"

namespace e2e {

namespace {

using rproxy::crypto::DeterministicRng;

double uniform01(DeterministicRng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * 0x1.0p-53;
}

/// Zipf(s) popularity over n items.  Which item holds which rank is a
/// seeded permutation, so each seed has its own hot set, or the identity.
class Zipf {
 public:
  /// `rng` null: item i holds rank i.
  Zipf(std::uint32_t n, double s, DeterministicRng* rng) : rank_to_item_(n) {
    double total = 0;
    cdf_.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    std::iota(rank_to_item_.begin(), rank_to_item_.end(), 0u);
    for (std::uint32_t i = n; rng != nullptr && i > 1; --i) {
      std::swap(rank_to_item_[i - 1], rank_to_item_[rng->next_below(i)]);
    }
  }

  std::uint32_t sample(DeterministicRng& rng) const {
    const double u = uniform01(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto rank = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return rank_to_item_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> rank_to_item_;
};

}  // namespace

const WorkloadLoad* find_workload(const std::string& name) {
  for (const WorkloadLoad& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Plan make_plan(const std::string& workload, std::uint64_t seed,
               std::size_t closed_ops, double open_rate,
               double open_seconds) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  DeterministicRng rng(seed * 0x9E3779B97F4A7C15ull + workload.size());

  std::function<PlannedOp()> next_op;
  if (workload == "authz") {
    // Chain c has popularity rank c.  Realization and depth cycle with the
    // rank, so every seed offers the same mix at every popularity level
    // (4 of 5 chains Kerberos-style, depths 1-4); the seed picks grantors,
    // files and the request sequence.
    for (std::uint32_t c = 0; c < kAuthzChains; ++c) {
      ChainSpec spec;
      spec.user = static_cast<std::uint32_t>(rng.next_below(kAuthzUsers));
      spec.depth = 1 + c % 4;
      spec.kerberos = c % 5 != 2;
      plan.chains.push_back(spec);
      plan.file_sizes.push_back(
          64 + static_cast<std::uint32_t>(rng.next_below(193)));
    }
    auto zipf = std::make_shared<Zipf>(kAuthzChains, 1.0, nullptr);
    next_op = [zipf, &rng] {
      return PlannedOp{OpKind::kRead, zipf->sample(rng), 0};
    };
  } else if (workload == "ledger") {
    auto zipf = std::make_shared<Zipf>(kLedgerAccounts, 1.0, &rng);
    next_op = [zipf, &rng] {
      if (rng.next_below(100) < 30) {
        return PlannedOp{OpKind::kQuery, zipf->sample(rng), 0};
      }
      const std::uint32_t from = zipf->sample(rng);
      std::uint32_t to = zipf->sample(rng);
      while (to == from) to = zipf->sample(rng);
      return PlannedOp{OpKind::kTransfer, from, to};
    };
  } else {
    auto zipf = std::make_shared<Zipf>(kClearingPayorAccounts, 1.0, &rng);
    next_op = [zipf, &rng] {
      return PlannedOp{OpKind::kDeposit, zipf->sample(rng),
                       static_cast<std::uint32_t>(
                           rng.next_below(kClearingPayees))};
    };
  }

  plan.closed_ops.reserve(closed_ops);
  for (std::size_t i = 0; i < closed_ops; ++i) {
    plan.closed_ops.push_back(next_op());
  }
  // Poisson arrivals: independent users, so an open loop.
  double t = 0;
  while (true) {
    t += -std::log(1.0 - uniform01(rng)) / open_rate;
    if (t >= open_seconds) break;
    plan.open_due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    plan.open_ops.push_back(next_op());
  }
  return plan;
}

rproxy::crypto::Digest Plan::digest() const {
  rproxy::wire::Encoder enc;
  enc.str(workload);
  enc.u64(seed);
  for (const ChainSpec& c : chains) {
    enc.u32(c.user);
    enc.u32(c.depth);
    enc.boolean(c.kerberos);
  }
  for (std::uint32_t size : file_sizes) enc.u32(size);
  const auto ops = [&](const std::vector<PlannedOp>& list) {
    enc.u64(list.size());
    for (const PlannedOp& op : list) {
      enc.u8(static_cast<std::uint8_t>(op.kind));
      enc.u32(op.a);
      enc.u32(op.b);
    }
  };
  ops(closed_ops);
  ops(open_ops);
  for (std::int64_t due : open_due_ns) enc.u64(static_cast<std::uint64_t>(due));
  return rproxy::crypto::sha256(enc.view());
}

}  // namespace e2e
