// End-to-end benchmark driver.  See e2ebench/README.md for the workloads,
// the metrics and how to run it; e2ebench/run.py builds and invokes it.
//
//   e2ebench --workload authz|ledger|clearing --seed N --seconds S
//            --trace 0|1 [--out DIR]
//
// Each workload's offered rate and in-flight count are frozen in
// kWorkloads (plan.hpp).  An untraced pass gives the end-to-end metrics.
// With --trace 1 a second, traced pass follows on a fresh deployment and
// gives the per-layer metrics; each pass then measures S/2 seconds.  The
// last stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
#include <malloc.h>
#include <openssl/crypto.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "crypto/signature.hpp"
#include "driver/deployment.hpp"
#include "driver/loadgen.hpp"
#include "driver/plan.hpp"
#include "driver/trace.hpp"
#include "driver/util.hpp"
#include "driver/workload.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;

// A pass measuring S seconds alternates the two loops over kRounds rounds,
// so each run samples several stretches of machine time.  The open loop
// leads: the first 0.1 S of the pass is warm-up (caches fill, lazy set-up
// finishes).  A round measures 0.6 S / kRounds of open loop, then a
// closed-loop segment that fills the pipeline for 0.05 S / kRounds and
// then runs a fixed share of the op pool.  The pool holds pool_rate ops per
// second of closed loop (0.35 S), so at pool_rate a segment lasts its
// nominal time; a faster or slower program just takes less or more.
// Because every segment does the same ops, the state each phase meets
// (replay cache, audit log, journals, dedup tables) has the same size on
// every run, and costs that grow with that state stay comparable.
constexpr int kRounds = 4;
constexpr double kWarmupShare = 0.1;
constexpr double kOpenShare = 0.6;
constexpr double kRampShare = 0.05;
constexpr double kClosedShare = 0.3;
/// A closed-loop segment stops after this many times its nominal time even
/// with ops left, so a much slower program still finishes its run.
constexpr double kClosedCap = 4;
constexpr unsigned kConnections = 4;
constexpr unsigned kDriverThreads = 2;
constexpr unsigned kGenThreads = 4;
/// An untraced pass brings the deployment up in two windows, one before
/// and one after the measured phases, so setup_s samples the host at two
/// times.  Each window does at least kMinSetups bring-ups, and more (up to
/// kMaxSetups) until kSetupBudgetS has passed; setup_s is the median
/// bring-up over both windows.
constexpr int kMinSetups = 4;
constexpr int kMaxSetups = 8;
constexpr double kSetupBudgetS = 0.75;
/// A run is invalid when sends left this late (p99) ...
constexpr double kMaxLagP99Us = 50'000;
/// ... or, in some open-loop segment, the backlog in the last quarter
/// exceeds this many times the first quarter's plus 250 ms of arrivals.
constexpr double kBacklogGrowth = 3;
constexpr double kBacklogFloorS = 0.25;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

struct Options {
  std::string workload;
  const WorkloadLoad* load = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".e2ebench/results";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: e2ebench --workload authz|ledger|clearing "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(v);
    } else if (arg == "--trace") {
      o.trace = v == "1";
    } else if (arg == "--out") {
      o.out = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  o.load = find_workload(o.workload);
  if (o.load == nullptr) usage("unknown workload");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

/// Counters read at phase boundaries, with the servers quiescent.
using Counters = std::map<std::string, double>;

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Counters read_counters(Deployment& d, const Workload& w) {
  Counters c;
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const rp::crypto::KeyCacheStats keys = rp::crypto::key_cache_stats();
  c["key.verify_hits"] = n(keys.verify_hits);
  c["key.verify_misses"] = n(keys.verify_misses);
  c["key.signs"] = n(keys.sign_hits + keys.sign_misses);
  rp::core::ChainCacheStats verify;
  if (d.file_server) {
    verify = d.file_server->verifier().cache_stats();
    c["denied"] = n(d.file_server->audit().denied_count());
  }
  c["verify.hits"] = n(verify.hits);
  c["verify.misses"] = n(verify.misses);
  c["verify.evictions"] = n(verify.evictions);
  c["resolves"] = n(d.resolver.calls());
  c["sim.rpcs"] = n(d.net.stats().rpcs);
  c["sim.bytes"] = n(d.net.stats().bytes);
  for (const auto& bank : d.banks) {
    const auto g = bank->primary->journal_group_stats();
    c["fsyncs"] += n(g.fsyncs);
    c["committed"] += n(g.committed);
    c["waits"] += n(g.waits);
    c["journal_bytes"] += n(dir_bytes(bank->dir));
    c["bounced"] += n(bank->primary->checks_bounced());
    c["deduped"] += n(bank->primary->deduped_replies());
  }
  c["driver_signs"] = n(w.driver_signs());
  c["wrong_shard"] = n(d.wrong_shard.load());
  return c;
}

/// Adds after - before to `sum`, key by key.
void add_delta(Counters& sum, const Counters& before, const Counters& after) {
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    sum[key] += value - (it == before.end() ? 0 : it->second);
  }
}

std::uint64_t max_group(Deployment& d) {
  std::uint64_t most = 0;
  for (const auto& bank : d.banks) {
    most = std::max(most, bank->primary->journal_group_stats().max_group);
  }
  return most;
}

/// Appends one segment's results to a pass's running phase result.
void merge(PhaseResult& into, PhaseResult&& seg) {
  into.attempted += seg.attempted;
  into.ok += seg.ok;
  into.ok_writes += seg.ok_writes;
  into.failed += seg.failed;
  into.driver_cpu_s += seg.driver_cpu_s;
  into.process_cpu_s += seg.process_cpu_s;
  into.steal_jiffies += seg.steal_jiffies;
  into.elapsed_s += seg.elapsed_s;
  into.rpcs += seg.rpcs;
  into.bytes += seg.bytes;
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(into.slice_ops_per_s, seg.slice_ops_per_s);
  append(into.slice_steal, seg.slice_steal);
  append(into.latency_us, seg.latency_us);
  append(into.latency_steal, seg.latency_steal);
  append(into.write_class, seg.write_class);
  append(into.lag_us, seg.lag_us);
}

struct PassResult {
  std::vector<double> setup_s;
  double gen_s = 0;
  /// Resident memory the generated inputs added (MiB), and the process's
  /// peak resident set at the end of the pass.
  double input_mib = 0;
  double peak_mib = 0;
  std::string digest;
  PhaseResult closed;
  PhaseResult open;
  /// Counter deltas over the open-loop and the closed-loop segments.
  Counters open_delta;
  Counters closed_delta;
  std::uint64_t max_group = 0;
  std::uint64_t max_lag_lsn = 0;
  /// Worst open-loop segment: backlog growth beyond the validity limit
  /// (positive = the backlog kept growing).
  double backlog_excess = -1e300;
  std::string gate_error;  ///< empty when every gate held
  std::string first_error;  ///< why the first failed op failed
  std::vector<Span> spans;  ///< traced pass: the open loop's spans
};

std::string hex(const rp::crypto::Digest& d) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : d) {
    s += digits[b >> 4];
    s += digits[b & 15];
  }
  return s;
}

/// One pass measuring `seconds` on a fresh deployment.  `setups` caps the
/// timed bring-ups per window; above 1, a second window follows the gates.
PassResult run_pass(const Options& o, double seconds, int setups,
                    Tracer* tracer, const std::string& work_root) {
  PassResult pass;
  const WorkloadLoad& load = *o.load;
  const double warmup = kWarmupShare * seconds;
  const double round_s = seconds / kRounds;

  const std::int64_t gen0 = now_ns();
  const auto pool = static_cast<std::size_t>(
      load.pool_rate * (kRampShare + kClosedShare) * seconds);
  const Plan plan = make_plan(o.workload, o.seed, pool, load.rate,
                              warmup + kOpenShare * seconds);
  pass.digest = hex(plan.digest());
  double gen_s = static_cast<double>(now_ns() - gen0) / 1e9;

  // One window of up to `setups` timed bring-ups; returns the last.
  const auto bring_up = [&] {
    std::unique_ptr<Deployment> d;
    const std::int64_t start = now_ns();
    for (int i = 0; i < setups; ++i) {
      if (i >= kMinSetups &&
          static_cast<double>(now_ns() - start) / 1e9 > kSetupBudgetS) {
        break;
      }
      const std::string dir =
          work_root + "/setup-" + std::to_string(pass.setup_s.size());
      fs::create_directories(dir);
      d.reset();
      const std::int64_t t0 = now_ns();
      d = std::make_unique<Deployment>(plan, dir, tracer);
      pass.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return d;
  };
  std::unique_ptr<Deployment> d = bring_up();

  // The inputs stay resident for the whole pass.  Freed memory (earlier
  // bring-ups and passes, then generation's scratch) is handed back before
  // each reading, so the delta is what the driver keeps.
  const std::int64_t gen1 = now_ns();
  ::malloc_trim(0);
  const double rss0 = rss_mib();
  Workload w(plan, *d);
  w.generate(kGenThreads);
  ::malloc_trim(0);
  pass.input_mib = rss_mib() - rss0;
  pass.gen_s = gen_s + static_cast<double>(now_ns() - gen1) / 1e9;

  // Runs one segment and adds its counter deltas to `delta`.  The clock
  // ticker is the benchmark's, like the driver threads, so its CPU is
  // charged to the driver.
  const auto segment = [&](const PhaseConfig& c, Counters& delta) {
    const Counters before = read_counters(*d, w);
    const double ticker0 = d->ticker_cpu_s();
    PhaseResult r = run_phase(w, c);
    r.driver_cpu_s += d->ticker_cpu_s() - ticker0;
    add_delta(delta, before, read_counters(*d, w));
    return r;
  };

  PhaseConfig base;
  base.port = d->port();
  base.connections = kConnections;
  base.threads = kDriverThreads;
  base.tracer = tracer;
  const std::vector<std::int64_t>& due = plan.open_due_ns;
  std::size_t open_next = 0;
  const std::size_t closed_per_round = w.pool_size(Phase::kClosed) / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // Open-loop segment: the ops due in this round's stretch of schedule.
    PhaseConfig oc = base;
    oc.phase = Phase::kOpen;
    oc.due_ns = &due;
    oc.due_offset_ns =
        round == 0 || open_next >= due.size() ? 0 : due[open_next];
    oc.warmup_s = round == 0 ? warmup : 0;
    oc.first_op = open_next;
    const auto seg_end = static_cast<std::int64_t>(
        (warmup + kOpenShare * round_s * (round + 1)) * 1e9);
    oc.end_op = static_cast<std::size_t>(
        std::lower_bound(due.begin(), due.end(), seg_end) - due.begin());
    if (round == kRounds - 1) oc.end_op = due.size();
    PhaseResult open = segment(oc, pass.open_delta);
    if (tracer != nullptr) {
      const std::vector<Span> spans = tracer->drain();
      pass.spans.insert(pass.spans.end(), spans.begin(), spans.end());
    }
    pass.backlog_excess =
        std::max(pass.backlog_excess,
                 open.backlog_last - kBacklogGrowth * open.backlog_first -
                     load.rate * kBacklogFloorS);
    open_next = oc.end_op;
    merge(pass.open, std::move(open));

    // Closed-loop segment: this round's share of the pool.
    PhaseConfig cc = base;
    cc.phase = Phase::kClosed;
    cc.inflight = load.inflight;
    cc.warmup_s = kRampShare * round_s;
    cc.seconds = kClosedCap * (kRampShare + kClosedShare) * round_s;
    cc.first_op = closed_per_round * round;
    cc.end_op = closed_per_round * (round + 1);
    merge(pass.closed, segment(cc, pass.closed_delta));
    if (tracer != nullptr) (void)tracer->drain();
  }
  pass.max_group = max_group(*d);
  pass.max_lag_lsn = d->max_lag_lsn();
  pass.peak_mib = peak_rss_mib();

  d->stop();
  pass.first_error = w.first_error();
  const double committed =
      pass.open_delta["committed"] + pass.closed_delta["committed"];
  const rp::util::Status gates =
      w.check(pass.closed.ok + pass.open.ok,
              pass.closed.ok_writes + pass.open.ok_writes, committed);
  if (!gates.is_ok()) pass.gate_error = gates.to_string();
  if (setups > 1) {
    d.reset();
    (void)bring_up();
  }
  return pass;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// The machine is shared: the host steals CPU time from it in bursts that
// last seconds, and a stolen CPU stalls every request behind it.  Each
// 250 ms slice of a phase carries the steal time /proc/stat reported over
// it, and the timing metrics are taken over the quieter half of the slices
// (steal at or below the median), so they describe the program rather
// than the neighbours.  Where the kernel reports no steal, every slice
// qualifies.

/// True for the samples whose steal is at or below the median.
std::vector<bool> quiet(const std::vector<double>& steal) {
  const double cut = median(steal);
  std::vector<bool> keep;
  for (double s : steal) keep.push_back(s <= cut);
  return keep;
}

/// Closed-loop capacity: mean completion rate over the quiet slices.
double peak_ops_s(const PhaseResult& r) {
  const std::vector<bool> keep = quiet(r.slice_steal);
  std::vector<double> rates;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) rates.push_back(r.slice_ops_per_s[i]);
  }
  return mean(rates);
}

/// Open-loop latency quantile over the ops due in quiet slices.  `write`
/// selects one op class.
double latency_quantile(const PhaseResult& r, double q,
                        std::optional<bool> write = std::nullopt) {
  const std::vector<bool> keep = quiet(r.latency_steal);
  std::vector<double> ops;
  for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
    if (keep[i] && (!write || r.write_class[i] == *write)) {
      ops.push_back(r.latency_us[i]);
    }
  }
  return quantile(ops, q);
}

/// Validity of a pass; empty when valid.
std::string validity(const PassResult& p) {
  if (p.closed.slice_ops_per_s.empty()) {
    return "the closed loop measured no slice";
  }
  std::vector<double> lag = p.open.lag_us;
  const double lag_p99 = quantile(lag, 0.99);
  if (lag_p99 > kMaxLagP99Us) {
    return "generator fell behind schedule (send lag p99 " +
           std::to_string(lag_p99) + " us)";
  }
  if (p.backlog_excess > 0) {
    return "open-loop backlog kept growing (by " +
           std::to_string(p.backlog_excess) + " ops over the limit)";
  }
  if (p.closed.attempted == 0 || p.open.attempted == 0) {
    return "a phase attempted no ops";
  }
  return {};
}

double cpu_us_per_op(const PhaseResult& r) {
  return r.ok == 0 ? 0
                   : (r.process_cpu_s - r.driver_cpu_s) * 1e6 /
                         static_cast<double>(r.ok);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Times Ed25519 verify and sign on this machine, µs per call: the best
/// of several batches, so a burst of host steal does not inflate it.
std::pair<double, double> calibrate_ed25519() {
  const auto pair = rp::crypto::SigningKeyPair::generate();
  const rp::util::Bytes msg(96, 0x5a);
  const rp::util::Bytes sig = rp::crypto::sign(pair, msg);
  constexpr int kBatches = 5;
  constexpr int kReps = 60;
  double verify_us = 1e300;
  double sign_us = 1e300;
  for (int b = 0; b < kBatches; ++b) {
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kReps; ++i) {
      if (!rp::crypto::verify(pair.public_key(), msg, sig)) std::abort();
    }
    verify_us = std::min(
        verify_us, static_cast<double>(now_ns() - t0) / 1e3 / kReps);
    t0 = now_ns();
    for (int i = 0; i < kReps; ++i) (void)rp::crypto::sign(pair, msg);
    sign_us =
        std::min(sign_us, static_cast<double>(now_ns() - t0) / 1e3 / kReps);
  }
  return {verify_us, sign_us};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

int run(const Options& o) {
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "error: this driver was built unoptimized; its numbers "
                 "would not be measurements.  Build it Release.\n");
    return 3;
  }
  fs::create_directories(o.out);
  const std::string work_root =
      o.out + "/work-" + std::to_string(::getpid());
  fs::remove_all(work_root);

  const std::string run_record =
      std::string("build=") + E2EBENCH_BUILD_TYPE +
      " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
      " cpu=\"" + cpu_model() + "\" openssl=\"" +
      OpenSSL_version(OPENSSL_VERSION) + "\"";
  std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# %s\n", run_record.c_str());
  std::printf("# rate=%g ops/s inflight=%u connections=%u driver_threads=%u\n",
              o.load->rate, o.load->inflight, kConnections, kDriverThreads);

  const double pass_s = o.trace ? o.seconds / 2 : o.seconds;
  PassResult u = run_pass(o, pass_s, o.trace ? 1 : kMaxSetups, nullptr,
                          work_root + "/untraced");
  std::optional<PassResult> t;
  std::unique_ptr<Tracer> tracer;
  if (o.trace) {
    tracer = std::make_unique<Tracer>();
    t = run_pass(o, pass_s, 1, tracer.get(), work_root + "/traced");
  }
  fs::remove_all(work_root);
  std::printf("# plan digest=%s\n", u.digest.c_str());

  std::vector<Metric> e2e;
  std::vector<Metric> extra;  // printed, not part of the JSON result
  {
    // The bounded metrics are the ones that hold steady on a shared host:
    // CPU time and memory.  Throughput and latency move with the host's
    // load and are reported per layer, unbounded (README.md gives their
    // spreads).  rss_mb leaves out the driver's pre-generated inputs, so it
    // measures the deployment and the state it grows.
    e2e.push_back({"setup_s", median(u.setup_s), "s"});
    e2e.push_back({"cpu_us_per_op", cpu_us_per_op(u.open), "us"});
    e2e.push_back({"peak_cpu_us_per_op", cpu_us_per_op(u.closed), "us"});
    e2e.push_back({"rss_mb", u.peak_mib - u.input_mib, "MiB"});
  }
  const std::size_t attempted = u.closed.attempted + u.open.attempted;
  const std::size_t failed = u.closed.failed + u.open.failed;

  std::vector<Metric> layer;
  const auto add = [&layer](const std::string& name, double value,
                            const std::string& unit) {
    layer.push_back({name, value, unit});
  };
  add("peak_ops_s", peak_ops_s(u.closed), "ops/s");
  add("p50_us", latency_quantile(u.open, 0.50), "us");
  add("p99_us", latency_quantile(u.open, 0.99), "us");
  add("read_p50_us", latency_quantile(u.open, 0.50, false), "us");
  add("read_p99_us", latency_quantile(u.open, 0.99, false), "us");
  add("write_p50_us", latency_quantile(u.open, 0.50, true), "us");
  add("write_p99_us", latency_quantile(u.open, 0.99, true), "us");
  add("failed_frac", ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)), "ratio");
  add("host.steal_frac",
      ratio(u.open.steal_jiffies + u.closed.steal_jiffies,
            (u.open.elapsed_s + u.closed.elapsed_s) * 100.0 *
                std::thread::hardware_concurrency()),
      "ratio");

  if (t) {
    const PassResult& p = *t;
    const TraceSummary s = summarize(p.spans);
    const double ops = static_cast<double>(p.open.ok);
    const double writes = static_cast<double>(p.open.ok_writes);
    const auto counter = [](const Counters& c, const char* key) {
      const auto it = c.find(key);
      return it == c.end() ? 0.0 : it->second;
    };
    const auto d = [&](const char* key) { return counter(p.open_delta, key); };
    // Group commit only forms groups under concurrent writers, so the
    // storage metrics come from the saturated closed loop.
    const auto dc = [&](const char* key) {
      return counter(p.closed_delta, key);
    };
    const double closed_writes = static_cast<double>(p.closed.ok_writes);
    const auto q = [&s](SpanName n, double qq) {
      auto it = s.durations_us.find(n);
      if (it == s.durations_us.end()) return 0.0;
      std::vector<double> v = it->second;
      return quantile(v, qq);
    };
    const auto count = [&s](SpanName n) {
      auto it = s.durations_us.find(n);
      return it == s.durations_us.end()
                 ? 0.0
                 : static_cast<double>(it->second.size());
    };
    const auto [verify_us, sign_us] = calibrate_ed25519();

    add("trace.peak_ops_s_delta", peak_ops_s(p.closed) - peak_ops_s(u.closed),
        "ops/s");
    add("trace.cpu_us_per_op_delta",
        cpu_us_per_op(p.open) - cpu_us_per_op(u.open), "us");
    add("net.tcp_rtt_us.p50", q(SpanName::kTcpRpc, 0.50), "us");
    add("net.tcp_rtt_us.p99", q(SpanName::kTcpRpc, 0.99), "us");
    add("net.tcp_overhead_us.mean", s.mean_rpc_us - s.mean_front_us, "us");
    add("net.tcp_rpcs_per_op", ratio(static_cast<double>(p.open.rpcs), ops),
        "count");
    add("net.tcp_bytes_per_op",
        ratio(static_cast<double>(p.open.bytes), ops), "B");
    add("net.sim_rpcs_per_op", ratio(d("sim.rpcs"), ops),
        "count");
    add("net.sim_bytes_per_op", ratio(d("sim.bytes"), ops), "B");
    add("server.handle_us.p50", q(SpanName::kServerHandle, 0.50), "us");
    add("server.handle_us.p99", q(SpanName::kServerHandle, 0.99), "us");
    add("server.denied", d("denied"), "count");
    const double hits = d("verify.hits");
    const double misses = d("verify.misses");
    add("core.verify_hit_ratio", ratio(hits, hits + misses), "ratio");
    add("core.verify_evictions_per_op",
        ratio(d("verify.evictions"), ops), "count");
    add("core.key_resolves_per_op", ratio(d("resolves"), ops),
        "count");
    const double verifies = d("key.verify_hits") + d("key.verify_misses");
    const double signs = d("key.signs") - d("driver_signs");
    add("crypto.verifies_per_op", ratio(verifies, ops), "count");
    add("crypto.signs_per_op", ratio(signs, ops), "count");
    add("crypto.key_hit_ratio",
        ratio(d("key.verify_hits"), verifies), "ratio");
    add("crypto.verify_us", verify_us, "us");
    add("crypto.sign_us", sign_us, "us");
    add("accounting.challenge_us.p50", q(SpanName::kAcctChallenge, 0.50),
        "us");
    add("accounting.query_us.p50", q(SpanName::kAcctQuery, 0.50), "us");
    add("accounting.query_us.p99", q(SpanName::kAcctQuery, 0.99), "us");
    add("accounting.transfer_us.p50", q(SpanName::kAcctTransfer, 0.50), "us");
    add("accounting.transfer_us.p99", q(SpanName::kAcctTransfer, 0.99), "us");
    add("accounting.deposit_us.p50", q(SpanName::kAcctDeposit, 0.50), "us");
    add("accounting.deposit_us.p99", q(SpanName::kAcctDeposit, 0.99), "us");
    add("accounting.settle_us.p50", q(SpanName::kSettle, 0.50), "us");
    add("accounting.settle_us.p99", q(SpanName::kSettle, 0.99), "us");
    add("accounting.bounced", d("bounced"), "count");
    add("accounting.dedup_replays", d("deduped"), "count");
    add("sharding.wrong_shard", d("wrong_shard"), "count");
    const double fsyncs = dc("fsyncs");
    add("storage.fsyncs_per_write", ratio(fsyncs, closed_writes), "count");
    add("storage.avg_group", ratio(dc("committed"), fsyncs), "count");
    add("storage.max_group", static_cast<double>(p.max_group), "count");
    add("storage.waits_per_write", ratio(dc("waits"), closed_writes),
        "count");
    add("storage.bytes_per_write",
        ratio(dc("journal_bytes"), closed_writes), "B");
    add("replication.barrier_us.p50", q(SpanName::kBarrier, 0.50), "us");
    add("replication.barrier_us.p99", q(SpanName::kBarrier, 0.99), "us");
    add("replication.ships_per_write",
        ratio(count(SpanName::kStandbyApply), writes), "count");
    add("replication.standby_apply_us.p50", q(SpanName::kStandbyApply, 0.50),
        "us");
    add("replication.lag_lsn.max", static_cast<double>(p.max_lag_lsn), "lsn");
    std::vector<double> lag = p.open.lag_us;
    add("driver.lag_us.p99", quantile(lag, 0.99), "us");
    add("driver.cpu_us_per_op", ratio(p.open.driver_cpu_s * 1e6, ops), "us");
    add("driver.gen_s", p.gen_s, "s");
    add("driver.input_mb", p.input_mib, "MiB");
    for (const char* name :
         {"driver", "net", "server", "accounting", "replication", "core"}) {
      const auto it = s.layers.find(name);
      const TraceSummary::Layer l =
          it == s.layers.end() ? TraceSummary::Layer{} : it->second;
      const std::string base = std::string("layer.") + name;
      add(base + ".count_per_op", ratio(l.count, ops), "count");
      add(base + ".busy_us_per_op", ratio(l.busy_ns / 1e3, ops), "us");
      add(base + ".self_us_per_op", ratio(l.self_ns / 1e3, ops), "us");
    }
    // The three ROADMAP "measured on this box" findings, restated from
    // this run's numbers with the layer each sits in.
    const double crypto_us = verifies / ops * verify_us + signs / ops * sign_us;
    std::printf("# finding crypto: %.2f verifies + %.2f signs per op at "
                "%.0f/%.0f us = %.0f us of Ed25519 per op, %.0f%% of "
                "cpu_us_per_op (crypto layer)\n",
                ratio(verifies, ops), ratio(signs, ops), verify_us, sign_us,
                crypto_us, 100 * ratio(crypto_us, cpu_us_per_op(p.open)));
    if (s.joined_rpcs > 0) {
      std::printf("# finding reactor: a TCP round trip takes %.0f us on "
                  "average, of which %.0f us is outside the front handler "
                  "(net layer)\n",
                  s.mean_rpc_us, s.mean_rpc_us - s.mean_front_us);
    }
    if (fsyncs > 0) {
      std::printf("# finding group commit: %.2f records per fsync, %.2f "
                  "fsyncs per write with %u ops in flight (storage "
                  "layer)\n",
                  ratio(dc("committed"), fsyncs), ratio(fsyncs, closed_writes),
                  o.load->inflight);
    }
    const std::string spans_path =
        o.out + "/spans-" + o.workload + ".csv";
    if (!write_spans_csv(p.spans, spans_path)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   spans_path.c_str());
    }
    std::printf("# spans=%zu joined_rpcs=%zu written to %s\n", p.spans.size(),
                s.joined_rpcs, spans_path.c_str());
  }

  std::vector<std::string> problems;
  for (const PassResult* p : {&u, t ? &*t : nullptr}) {
    if (p == nullptr) continue;
    if (!p->gate_error.empty()) {
      problems.push_back("correctness gate failed: " + p->gate_error);
    }
    if (!p->first_error.empty()) {
      std::printf("# first failed op: %s\n", p->first_error.c_str());
    }
    const std::string invalid = validity(*p);
    if (!invalid.empty()) problems.push_back("invalid run: " + invalid);
  }
  extra.push_back({"setup_s.samples", static_cast<double>(u.setup_s.size()),
                   "count"});
  extra.push_back({"open.attempted", static_cast<double>(u.open.attempted),
                   "count"});
  extra.push_back({"closed.attempted",
                   static_cast<double>(u.closed.attempted), "count"});
  extra.push_back({"rss.peak_mb", u.peak_mib, "MiB"});
  extra.push_back({"rss.input_mb", u.input_mib, "MiB"});

  std::ostringstream results;
  results << "{\"record\": " << json_string(run_record)
          << ", \"workload\": " << json_string(o.workload)
          << ", \"seed\": " << o.seed << ", \"rate\": " << o.load->rate
          << ", \"inflight\": " << o.load->inflight << ", \"metrics\": {";
  bool first = true;
  for (const auto* list : {&e2e, &layer, &extra}) {
    for (const Metric& m : *list) {
      std::printf("metric %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
      results << (first ? "" : ", ") << json_string(m.name) << ": ";
      json_number(results, m.value);
      first = false;
    }
  }
  results << "}}\n";
  std::ofstream(o.out + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                "-trace" + (o.trace ? "1" : "0") + ".json")
      << results.str();
  for (const std::string& p : problems) {
    std::printf("# %s\n", p.c_str());
  }

  const bool correct = problems.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  first = true;
  for (const Metric& m : o.trace ? layer : e2e) {
    json << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": ";
    json_number(json, m.value);
    json << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
