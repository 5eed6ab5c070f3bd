// Load generator: drives one phase of a workload over loopback TCP.
//
// Each driver thread owns some connections and pipelines on each, relying
// on the transport's in-order replies: a scheduled send never waits for a
// reply.  The closed loop keeps a fixed number of ops in flight and
// measures capacity; the open loop sends each op at its due time and
// times it from then, so a stall is charged to every op queued behind it.
#pragma once

#include <cstdint>
#include <vector>

#include "driver/trace.hpp"
#include "driver/workload.hpp"

namespace e2e {

struct PhaseConfig {
  Phase phase = Phase::kClosed;
  std::uint16_t port = 0;
  unsigned connections = 4;
  unsigned threads = 2;
  /// Closed loop: ops in flight across all connections, and the longest
  /// the phase may run.
  unsigned inflight = 0;
  double seconds = 0;
  /// Both loops: ops finishing (closed) or due (open) in the first
  /// warmup_s are left out of the timing results.
  double warmup_s = 0;
  /// The phase drives ops [first_op, end_op) of the workload's list; the
  /// closed loop stops once they are all sent, or at its time limit.
  std::size_t first_op = 0;
  std::size_t end_op = 0;
  /// Open loop: due time of each op, and the due time at which this
  /// phase starts (ns).
  const std::vector<std::int64_t>* due_ns = nullptr;
  std::int64_t due_offset_ns = 0;
  /// How long replies may trail the last send before ops count as lost.
  double drain_s = 10;
  Tracer* tracer = nullptr;
};

struct PhaseResult {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t ok_writes = 0;  ///< completed write-class ops
  std::size_t failed = 0;
  /// Closed loop: completed ops per second in each slice of the measured
  /// window, and the host's steal time over each slice (jiffies).
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_steal;
  /// Closed loop: when the first connection sent its last op (0: never).
  std::int64_t exhausted_ns = 0;
  /// Open loop, after the warm-up: latency from due time per attempted op
  /// (failed = +inf), in due order, with its class.  lag_us: how late each
  /// send left.
  std::vector<double> latency_us;
  std::vector<bool> write_class;
  /// Steal time over the 250 ms slice in which each op was due.
  std::vector<double> latency_steal;
  std::vector<double> lag_us;
  /// Open loop: mean backlog (due but unfinished ops) in the first and
  /// last quarters of the phase.
  double backlog_first = 0;
  double backlog_last = 0;
  /// CPU time of the benchmark's own threads (driver threads and steal
  /// sampler), and of the whole process, over the phase.
  double driver_cpu_s = 0;
  double process_cpu_s = 0;
  /// Host steal time over the phase (jiffies, all CPUs).
  double steal_jiffies = 0;
  double elapsed_s = 0;
  std::uint64_t rpcs = 0;
  std::uint64_t bytes = 0;
};

/// Runs one phase to completion (all replies in, or the drain timed out).
[[nodiscard]] PhaseResult run_phase(Workload& workload,
                                    const PhaseConfig& config);

}  // namespace e2e
