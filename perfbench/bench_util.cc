#include "bench_util.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples (the epsilon
/// keeps e.g. 99.9% of 10000 at rank 9990 despite rounding).
size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::min(n, static_cast<size_t>(std::max(1.0, rank)));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[NearestRank(p, samples.size()) - 1];
}

Tail TailPercentile(const std::vector<double>& samples, size_t min_beyond) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const size_t n = samples.size();
  Tail tail;
  tail.n = n;
  for (double p : kLadder) {
    if (n >= NearestRank(p, n) + min_beyond) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = Percentile(samples, tail.percentile);
  return tail;
}

namespace {

bool AllOf(const std::string& s, const char* extra) {
  return std::all_of(s.begin(), s.end(), [extra](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) ||
           std::string(extra).find(c) != std::string::npos;
  });
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  return !name.empty() && name.size() <= 64 &&
         std::isalnum(static_cast<unsigned char>(name[0])) &&
         AllOf(name, "_.-");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

}  // namespace perfbench
