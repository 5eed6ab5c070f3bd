// The benchmark's own test: each workload's plan is a pure function of the
// seed.  Generating a workload twice from one seed gives identical
// digests; another seed gives a different digest.
#include <cstdio>

#include "driver/plan.hpp"

int main() {
  int failures = 0;
  for (const char* workload : {"authz", "ledger", "clearing"}) {
    const auto plan = [&](std::uint64_t seed) {
      return e2e::make_plan(workload, seed, 2000, 500.0, 2.0).digest();
    };
    const bool same = plan(7) == plan(7);
    const bool differs = plan(7) != plan(8);
    std::printf("%-8s same seed -> same digest: %s; other seed differs: %s\n",
                workload, same ? "yes" : "NO", differs ? "yes" : "NO");
    failures += (same ? 0 : 1) + (differs ? 0 : 1);
  }
  return failures == 0 ? 0 : 1;
}
