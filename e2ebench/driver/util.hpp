// Small helpers shared by the benchmark driver: monotonic time, CPU and
// memory readings, percentiles, and a flat JSON object writer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (steady_clock), the one wall-time base of a run.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// CPU seconds consumed by the whole process.
double process_cpu_s();
/// Resident set of the process (VmRSS), MiB.
double rss_mib();
/// Peak resident set of the process (VmHWM), MiB.
double peak_rss_mib();

/// Latency sample of a failed op: slower than any completed op.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// q-quantile (0..1) by nearest rank; sorts `v`.  0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Named metric with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Appends `value` as JSON (non-finite numbers become null).
inline void json_number(std::ostringstream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  std::ostringstream num;
  num.precision(17);
  num << value;
  out << num.str();
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace e2e
