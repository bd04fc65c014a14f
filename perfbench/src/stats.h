#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles, failure accounting, counter
// deltas and span self time. Header-only so tests/stats_test.cc checks
// exactly what a run reports.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples`, p in (0, 1]: the smallest sample
/// such that at least p of all samples are <= it. Returns 0 when empty.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Splits time-ordered `samples` into `windows` consecutive chunks of equal
/// size (the last takes the remainder) and returns the median of the
/// chunks' p-percentiles: a burst of host noise inside one chunk moves one
/// chunk's value, not the result.
inline double WindowedPercentile(const std::vector<double>& samples,
                                 size_t windows, double p) {
  windows = std::clamp<size_t>(windows, 1, std::max<size_t>(samples.size(), 1));
  const size_t size = samples.size() / windows;
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * size);
    auto end = w + 1 == windows
                   ? samples.end()
                   : begin + static_cast<std::ptrdiff_t>(size);
    per_window.push_back(Percentile(std::vector<double>(begin, end), p));
  }
  return Median(per_window);
}

/// The highest of p90/p99/p999 that leaves at least `beyond` samples above
/// it (the tail a sample count can support); 0.5 when none can.
inline double SupportedPercentile(size_t samples, size_t beyond = 10) {
  double best = 0.5;
  for (double p : {0.9, 0.99, 0.999}) {
    const double above = static_cast<double>(samples) * (1.0 - p);
    if (above + 1e-9 >= static_cast<double>(beyond)) best = p;
  }
  return best;
}

/// Operations of one run: every script or request the benchmark issued.
/// A failed (error status), rejected (refused by admission) or wrong
/// (output check failed) operation counts once as failed.
struct FailureTally {
  int64_t attempted = 0;
  int64_t errors = 0;
  int64_t rejected = 0;
  int64_t wrong = 0;

  void Record(bool ok_status, bool was_rejected, bool output_ok) {
    ++attempted;
    if (was_rejected) {
      ++rejected;
    } else if (!ok_status) {
      ++errors;
    } else if (!output_ok) {
      ++wrong;
    }
  }
  int64_t Failed() const { return errors + rejected + wrong; }
  double FailedFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(Failed()) /
                                static_cast<double>(attempted);
  }
};

using CounterSnapshot = std::map<std::string, int64_t>;

/// after - before per counter; a counter missing on one side reads 0
/// (the registry creates counters lazily on first use).
inline CounterSnapshot CounterDelta(const CounterSnapshot& before,
                                    const CounterSnapshot& after) {
  CounterSnapshot delta;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : before) {
    if (after.count(name) == 0) delta[name] = -value;
  }
  return delta;
}

/// One recorded span; `parent` indexes the enclosing span in the same
/// vector (-1 for a root), `op` identifies the script or request.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t op = -1;
};

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once, and a child
/// reaching outside its parent counts only inside it).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_start = 0, cur_end = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_end) {
        cur_end = std::max(cur_end, b);
      } else {
        if (open) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
        open = true;
      }
    }
    if (open) covered += cur_end - cur_start;
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

/// Sums the self time (ns) of the spans that belong to an operation (op >=
/// 0; one-off probes have none) by the span-name prefix before the first
/// '.', the layer a span belongs to ("compiler.compile" -> "compiler").
inline std::map<std::string, int64_t> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0) continue;
    const std::string& n = spans[i].name;
    by_layer[n.substr(0, n.find('.'))] += self[i];
  }
  return by_layer;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
