#ifndef SYSDS_OBS_METRICS_H_
#define SYSDS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace sysds {
namespace obs {

/// Shard index of the calling thread. Threads get round-robin ids, so up
/// to kShards threads increment disjoint cache lines.
constexpr size_t kMetricShards = 16;
size_t ThreadShard();

/// Monotonically increasing counter backed by per-shard atomics: Add() is a
/// single relaxed fetch_add on a (mostly) thread-private cache line, Value()
/// sums the shards. No mutex anywhere.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    cells_[ThreadShard()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  Cell cells_[kMetricShards];
};

/// Point-in-time value (queue depth, cached bytes, active workers). One
/// cache line each: gauges are written on hot paths (the buffer pool sets
/// three per pin and unpin), and an 8-byte gauge sharing a line with other
/// hot heap data false-shares with it.
class alignas(64) Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-scale (power-of-two bucket) histogram for long-tailed values such as
/// latencies in nanoseconds or sizes in bytes. Bucket i counts values v
/// with bit_width(v) == i, i.e. [2^(i-1), 2^i); bucket 0 counts v <= 0.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(int64_t v);
  int64_t Count() const;
  int64_t Sum() const { return sum_.Value(); }
  int64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  /// Upper bound (2^i) of the bucket containing the p-quantile, p in [0,1].
  int64_t ApproxQuantile(double p) const;
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  Counter sum_;
};

/// Per-opcode instruction timing: invocation count plus accumulated
/// nanoseconds (the substrate under Statistics::IncInstruction).
struct InstrStat {
  Counter count;
  Counter nanos;
};

/// Process-wide registry of named metrics. Lookup takes a shared (reader)
/// lock; creation takes the exclusive lock once per name. Returned pointers
/// are stable for the process lifetime, so hot paths resolve a metric once
/// and then update it lock-free (see Statistics for the thread-local
/// memoization pattern).
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  InstrStat* GetInstrStat(const std::string& name);

  /// Value of a counter, 0 when it was never created (no side effects).
  int64_t CounterValue(const std::string& name) const;

  /// Zeroes counters, histograms, and instruction stats; gauges describe
  /// current state (queue depths, cached bytes) and are left alone.
  void ResetValues();

  struct CounterSnapshot {
    std::string name;
    int64_t value;
  };
  struct GaugeSnapshot {
    std::string name;
    int64_t value;
  };
  struct InstrSnapshot {
    std::string name;
    int64_t count;
    double seconds;
  };

  /// Name-sorted snapshots (std::map iteration order).
  std::vector<CounterSnapshot> Counters() const;
  std::vector<GaugeSnapshot> Gauges() const;
  std::vector<InstrSnapshot> Instructions() const;

  /// JSON export: {"counters":{...},"gauges":{...},"instructions":{...},
  /// "histograms":{...}}.
  std::string ExportJson() const;

 private:
  MetricsRegistry() = default;

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<InstrStat>> instructions_;
};

}  // namespace obs
}  // namespace sysds

#endif  // SYSDS_OBS_METRICS_H_
