// Tests of the benchmark's arithmetic: percentile selection, the tail a
// sample count supports, failure accounting, counter deltas and span self
// time. Run: ctest --test-dir <build dir> (or the perfbench_tests binary).

#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectEq(double got, double want, const std::string& what) {
  Expect(got == want, what + ": got " + std::to_string(got) + ", want " +
                          std::to_string(want));
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentile() {
  using perfbench::Percentile;
  ExpectEq(Percentile({}, 0.5), 0, "empty");
  ExpectEq(Percentile({7}, 0.99), 7, "single sample");
  ExpectEq(Percentile(Range(100), 0.5), 50, "p50 of 1..100");
  ExpectEq(Percentile(Range(100), 0.9), 90, "p90 of 1..100");
  ExpectEq(Percentile(Range(100), 0.99), 99, "p99 of 1..100");
  ExpectEq(Percentile(Range(101), 0.5), 51, "p50 of 1..101");
  ExpectEq(Percentile(Range(1000), 0.99), 990, "p99 of 1..1000");
  ExpectEq(Percentile({1, 2}, 1.0), 2, "p100 is the max");
  ExpectEq(perfbench::Median({3, 1, 2}), 2, "median");

  // p99 of 1000 samples leaves exactly ten samples above it: ten slow
  // samples stay beyond the tail, an eleventh moves it.
  std::vector<double> v(990, 1.0);
  for (int i = 0; i < 10; ++i) v.push_back(1000.0);
  ExpectEq(Percentile(v, 0.99), 1.0, "ten slow samples beyond p99");
  v[0] = 1000.0;
  ExpectEq(Percentile(v, 0.99), 1000.0, "eleven slow samples reach p99");
}

void TestWindowedPercentile() {
  using perfbench::WindowedPercentile;
  ExpectEq(WindowedPercentile({}, 4, 0.5), 0, "empty");
  ExpectEq(WindowedPercentile(Range(100), 1, 0.9), 90, "one window");
  // Three windows of 1..10 with one window slowed tenfold: the median of
  // the windows' p90s ignores the slow window.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 10; ++i) v.push_back(w == 1 ? 10.0 * i : i);
  }
  ExpectEq(WindowedPercentile(v, 3, 0.9), 9, "slow window ignored");
  ExpectEq(perfbench::Percentile(v, 0.9), 70, "plain p90 sees it");
  // The last window takes the remainder: 7 samples in 2 windows -> 3 + 4.
  ExpectEq(WindowedPercentile({1, 2, 3, 10, 20, 30, 40}, 2, 0.5), 2,
           "remainder in last window");
  ExpectEq(WindowedPercentile({5, 6}, 8, 0.5), 5, "more windows than samples");

}

void TestSupportedPercentile() {
  using perfbench::SupportedPercentile;
  ExpectEq(SupportedPercentile(0), 0.5, "no samples");
  ExpectEq(SupportedPercentile(99), 0.5, "99 samples: no tail");
  ExpectEq(SupportedPercentile(100), 0.9, "100 samples: p90");
  ExpectEq(SupportedPercentile(999), 0.9, "999 samples: p90");
  ExpectEq(SupportedPercentile(1000), 0.99, "1000 samples: p99");
  ExpectEq(SupportedPercentile(10000), 0.999, "10000 samples: p999");
  ExpectEq(SupportedPercentile(1000, 20), 0.9, "stricter beyond");
}

void TestFailureTally() {
  perfbench::FailureTally t;
  ExpectEq(t.FailedFrac(), 0, "empty tally");
  t.Record(true, false, true);    // ok
  t.Record(true, false, false);   // wrong output
  t.Record(false, false, false);  // error
  t.Record(false, true, false);   // rejected (not also an error)
  t.Record(true, false, true);    // ok
  ExpectEq(static_cast<double>(t.attempted), 5, "attempted");
  ExpectEq(static_cast<double>(t.wrong), 1, "wrong");
  ExpectEq(static_cast<double>(t.errors), 1, "errors");
  ExpectEq(static_cast<double>(t.rejected), 1, "rejected");
  ExpectEq(static_cast<double>(t.Failed()), 3, "failed");
  ExpectEq(t.FailedFrac(), 0.6, "failed share");
}

void TestCounterDelta() {
  perfbench::CounterSnapshot before = {{"a", 5}, {"b", 7}, {"gone", 3}};
  perfbench::CounterSnapshot after = {{"a", 9}, {"b", 7}, {"new", 4}};
  perfbench::CounterSnapshot d = perfbench::CounterDelta(before, after);
  ExpectEq(static_cast<double>(d["a"]), 4, "grown counter");
  ExpectEq(static_cast<double>(d["b"]), 0, "unchanged counter");
  ExpectEq(static_cast<double>(d["new"]), 4, "counter created in between");
  ExpectEq(static_cast<double>(d["gone"]), -3, "counter reset in between");
  ExpectEq(static_cast<double>(d.size()), 4, "delta keys");
}

void TestSelfTimes() {
  using perfbench::Span;
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [60,70]; [20,50] has a child [25,45] that must not be subtracted from
  // the root; a child [90,120] reaches past the root's end.
  std::vector<Span> spans = {
      {"bench.script", 0, 100, -1, 0},   // 0
      {"lang.parse", 10, 30, 0, 0},      // 1
      {"api.execute", 20, 50, 0, 0},     // 2
      {"io.read", 25, 45, 2, 0},         // 3
      {"compiler.compile", 60, 70, 0, 0},  // 4
      {"api.execute", 90, 120, 0, 0},    // 5
      {"matrix.tsmm", 200, 300, -1, -1},  // 6: a probe outside any op
  };
  std::vector<int64_t> self = perfbench::SelfTimes(spans);
  // root covered: [10,50] + [60,70] + [90,100] = 40 + 10 + 10 = 60.
  ExpectEq(static_cast<double>(self[0]), 40, "root self time");
  ExpectEq(static_cast<double>(self[1]), 20, "leaf self time");
  ExpectEq(static_cast<double>(self[2]), 10, "self time minus child");
  ExpectEq(static_cast<double>(self[3]), 20, "grandchild self time");
  ExpectEq(static_cast<double>(self[5]), 30, "child past parent end");

  auto by_layer = perfbench::SelfTimeByLayer(spans);
  ExpectEq(static_cast<double>(by_layer["api"]), 40, "layer sum");
  ExpectEq(static_cast<double>(by_layer["bench"]), 40, "bench layer");
  ExpectEq(static_cast<double>(by_layer["compiler"]), 10, "compiler layer");
  ExpectEq(static_cast<double>(self[6]), 100, "probe self time");
  Expect(by_layer.count("matrix") == 0, "probes are not charged to layers");
}

}  // namespace

int main() {
  TestPercentile();
  TestWindowedPercentile();
  TestSupportedPercentile();
  TestFailureTally();
  TestCounterDelta();
  TestSelfTimes();
  if (failures == 0) std::printf("perfbench stats tests passed\n");
  return failures == 0 ? 0 : 1;
}
