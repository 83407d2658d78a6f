#ifndef KGPIP_PERFBENCH_BENCH_UTIL_H_
#define KGPIP_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// A latency percentile together with the sample count it was taken from.
struct Tail {
  double percentile = 50.0;  // e.g. 90 for p90
  double value = 0.0;
  size_t n = 0;
};

/// Nearest-rank percentile (`p` in [0, 100]) of an unsorted sample.
/// Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// The highest percentile of the ladder {50, 75, 90, 95, 99, 99.9} whose
/// nearest-rank position still leaves at least `min_beyond` samples above
/// it, so a tail value never rests on a handful of points. Falls back to
/// the median when even p50 leaves fewer than `min_beyond` samples.
Tail TailPercentile(const std::vector<double>& samples,
                    size_t min_beyond = 10);

/// Metric names: 1-64 characters from letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// Units: 1-16 characters from letters, digits, `_`, `/`, `%`, `.`, `-`.
bool ValidUnit(const std::string& unit);

/// Open-loop load generation: request i is due `due_seconds[i]` after the
/// start. `submit(i, late_seconds)` is called on the calling thread at (or
/// after, when the generator fell behind) each due time; it must not block
/// on the request's completion. Returns how late each submission ran.
/// Requests are never skipped or re-timed: a stalled submission makes
/// every later one late, and that lateness is part of their latency.
template <class Submit>
std::vector<double> RunOpenLoop(const std::vector<double>& due_seconds,
                                Submit&& submit) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  std::vector<double> late(due_seconds.size(), 0.0);
  for (size_t i = 0; i < due_seconds.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_seconds[i]));
    std::this_thread::sleep_until(due);
    late[i] = std::chrono::duration<double>(Clock::now() - due).count();
    submit(i, late[i]);
  }
  return late;
}

/// Latency of one open-loop request measured from its due time: the time
/// the generator was late sending it plus the time the system took from
/// submission to response.
inline double DueTimeLatency(double late_seconds, double service_seconds) {
  return late_seconds + service_seconds;
}

}  // namespace perfbench

#endif  // KGPIP_PERFBENCH_BENCH_UTIL_H_
