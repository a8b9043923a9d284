// Shared pieces of the end-to-end benchmark load generator: wall-clock timing,
// order statistics, and the run result the load generator prints as its last
// line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`, with sub-microsecond resolution.
inline double msSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Times `fn` `reps` times and returns the median call, in microseconds.
template <typename Fn>
double medianUs(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = SteadyClock::now();
    fn();
    us.push_back(msSince(t0) * 1000.0);
  }
  return median(us);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string nodeBin;
};

/// What one run reports. `metrics` holds every value the workload
/// measured; the load generator selects the declared end-to-end or per-layer set.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable reference lines (tails with their sample counts,
  /// independent-total checks), printed before the result line.
  std::vector<std::string> notes;

  /// Records a failed correctness check; the run stays measured.
  void mismatch(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

/// Reference line for a latency sample set: the median, and the highest
/// of p90/p99 that still has at least ten samples beyond it (none below
/// forty samples), each with the sample count.
inline std::string latencySummary(const std::string& name,
                                  const std::vector<double>& ms) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s p50=%.3f n=%zu", name.c_str(),
                median(ms), ms.size());
  std::string out = buf;
  const double tail = ms.size() >= 1000 ? 0.99 : ms.size() >= 100 ? 0.9 : 0;
  if (tail > 0) {
    std::snprintf(buf, sizeof(buf), " p%.0f=%.3f", tail * 100,
                  quantile(ms, tail));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
