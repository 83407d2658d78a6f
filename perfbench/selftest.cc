// Self-test of the benchmark's own helpers (percentile selection, open-loop
// due-time accounting, metric naming). run.py runs it before every
// benchmark run and refuses to measure when it fails.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // 1..n
  return v;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // p75 of 40 samples sits at rank 30: exactly 10 samples beyond it.
  perfbench::Tail t = TailPercentile(Iota(40));
  Check(t.percentile == 75.0 && t.value == 30.0 && t.n == 40,
        "40 samples -> p75 = 30");
  // 39 samples leave only 9 beyond p75's rank 30: fall back to p50.
  t = TailPercentile(Iota(39));
  Check(t.percentile == 50.0 && t.value == 20.0, "39 samples -> p50");
  // 100 samples: p90 (rank 90) leaves 10 beyond, p95 leaves 5.
  t = TailPercentile(Iota(100));
  Check(t.percentile == 90.0 && t.value == 90.0, "100 samples -> p90");
  t = TailPercentile(Iota(1000));
  Check(t.percentile == 99.0 && t.value == 990.0, "1000 samples -> p99");
  t = TailPercentile(Iota(10000));
  Check(t.percentile == 99.9 && t.value == 9990.0, "10000 samples -> p99.9");
  t = TailPercentile(Iota(5));
  Check(t.percentile == 50.0 && t.value == 3.0, "tiny sample -> median");
  t = TailPercentile({});
  Check(t.n == 0 && t.value == 0.0, "empty sample");
  Check(perfbench::Percentile({5.0, 1.0, 3.0}, 50.0) == 3.0,
        "nearest-rank median of an unsorted sample");
}

void TestDueTimeLatencyWithStall() {
  // Ten requests due 20 ms apart; submitting request 2 stalls the
  // generator for 120 ms. Requests 3..7 were due during the stall, so they
  // go out late, and their due-time latency must include that wait even
  // though the system answered each one instantly.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(0.02 * i);
  std::vector<double> latency(due.size(), 0.0);
  const std::vector<double> late =
      perfbench::RunOpenLoop(due, [&](size_t i, double late_seconds) {
        if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(120));
        latency[i] = perfbench::DueTimeLatency(late_seconds, 0.0);
      });
  Check(late.size() == due.size(), "one lateness per request");
  Check(late[0] < 0.015 && late[1] < 0.015, "on time before the stall");
  // Request 3 was due 20 ms after request 2 started its 120 ms stall.
  Check(latency[3] >= 0.095, "stall shows in the next request's latency");
  double max_late = 0.0;
  for (double l : late) max_late = std::max(max_late, l);
  Check(max_late >= 0.095, "generator lateness is reported");
  // Due times after the stall has drained are met again.
  Check(late[9] < 0.015, "schedule recovers after the stall");
  Check(perfbench::DueTimeLatency(0.25, 0.5) == 0.75,
        "due-time latency = lateness + service time");
}

void TestNamingRule() {
  using perfbench::ValidMetricName;
  using perfbench::ValidUnit;
  Check(ValidMetricName("op_p50_ms"), "plain name");
  Check(ValidMetricName("serve.queue_wait_ms_p50.hit"), "dotted name");
  Check(ValidMetricName("ml.fit_ms.gradient_boosting"), "learner suffix");
  Check(ValidMetricName("9lives-x"), "leading digit and dash");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName("_hidden"), "leading underscore");
  Check(!ValidMetricName(".x"), "leading dot");
  Check(!ValidMetricName("a b"), "space");
  Check(!ValidMetricName("a/b"), "slash is a unit character only");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");
  Check(ValidUnit("ms") && ValidUnit("1/s") && ValidUnit("%") &&
            ValidUnit("req/s") && ValidUnit("count") && ValidUnit("MiB"),
        "common units");
  Check(!ValidUnit("") && !ValidUnit("m s") && !ValidUnit("a:b") &&
            !ValidUnit(std::string(17, 's')),
        "bad units");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestDueTimeLatencyWithStall();
  TestNamingRule();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
