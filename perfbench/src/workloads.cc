// The four benchmark workloads. Each fixes its thread counts, builds its
// inputs from the seed, sets up several times (reporting the median),
// then measures for the requested seconds and checks every output.
//
// An untraced run reports the end-to-end metrics. A traced run measures
// the same loop untraced for half its time and traced for the other half;
// the traced half records spans around calls into the program's public
// functions plus counter snapshots, and yields the per-layer metrics.

#include "workloads.h"

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "api/systemds_context.h"
#include "compiler/compiler.h"
#include "io/io.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "runtime/controlprog/data.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_solve.h"
#include "serve/scoring_service.h"
#include "trace.h"

namespace perfbench {

using sysds::DataPtr;
using sysds::Inputs;
using sysds::MatrixBlock;
using sysds::Outputs;
using sysds::ScriptResult;
using sysds::Status;
using sysds::StatusOr;
using sysds::SystemDSContext;

void Result::Meta(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  meta.emplace_back(key, buf);
}

void Result::Meta(const std::string& key, const std::string& value) {
  meta.emplace_back(key, "\"" + value + "\"");
}

namespace {

// --- workload sizes and thread counts (recorded in each run's metadata) ---
constexpr int64_t kSweepRows = 20000, kSweepCols = 200;
constexpr int kSweepThreads = 4;
constexpr int64_t kSpillRows = 25000, kSpillCols = 200;
constexpr int kSpillThreads = 4;
constexpr double kSpillPoolShare = 0.8;  // pool limit over X's size
constexpr int64_t kLifeRows = 2000, kLifeCols = 10;
constexpr int kLifeThreads = 1;
// Each lifecycle script binds fresh data, so its ~4.5 MB of intermediates
// are new cache entries; warm-up fills this limit so every measured script
// runs against a full, evicting cache. Not the program's default 512 MB:
// there eviction takes a script from ~30 ms to ~2.4 s (README.md,
// "Findings"), too slow for a run. The default-size cost is not covered.
constexpr int64_t kLifeCacheBytes = 64LL << 20;
// lifecycle's latency_s.tail is p90, so a run measures at least 100
// scripts: ten beyond p90.
constexpr double kLifeTail = 0.9;
constexpr size_t kLifeMinScripts = 100;
constexpr int64_t kFeatures = 256;
constexpr int kScoreWorkers = 2;
constexpr int kScoreKernelThreads = 1;
constexpr int64_t kScoreCacheBytes = 4LL << 20;
constexpr int64_t kScoreBaseRows = 1024;
// Fixed offered rates, about 25% and 75% of the service's open-loop
// capacity on the reference machine (4 shared vCPUs, AVX-512): ~4000
// requests/s, the rate at which the backlog starts to grow while other
// tenants load the host. Fixed, so every commit is measured at the same
// offered load.
constexpr double kLoRps = 1000, kHiRps = 3000;
// The latency limit for the highest sustainable rate, on p90: host stalls
// of several ms (visible as generator lag) set p99 on a shared machine.
constexpr double kScoreTail = 0.9;
constexpr double kTailLimitUs = 1000.0;
// A latency percentile is read per window (12 per step) and the median
// across windows reported: on the shared reference host, stretches of
// 0.1 s to seconds run a thread up to 2x slower (a fixed compute loop
// outside the program shows them too); such a stretch moves a few
// windows, not the result.
constexpr size_t kWindows = 12;
// In-process execution and the closed loop alternate in slices of this
// length; each slice yields one p50, one p90 and one rate, and the median
// across slices is reported, for the same reason.
constexpr double kSliceSeconds = 0.1;
constexpr int kLambdas = 8;

// Output tolerances of the checks.
constexpr double kOracleRelTol = 1e-6;    // lm_sweep B and rss vs oracle
constexpr double kScoreRelTol = 1e-9;     // scoring yhat vs X.P
constexpr double kLifecycleMinR2 = 0.99;  // lifecycle holdout r2

// A failed or refused request misses every latency limit.
constexpr double kFailedLatencyUs = 1e12;

Status Fail(const std::string& msg) { return sysds::Internal(msg); }

StatusOr<std::string> ReadText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Fail("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Resets the kernel's resident-set high-water mark to the current resident
/// set, after returning freed heap pages, so that PeakRssMb covers only
/// what follows: the measured phase, not set-up or reference runs.
Status ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) return Fail("cannot reset the peak resident set");
  return Status::Ok();
}

/// The resident-set high-water mark (VmHWM) since ResetPeakRss, in MiB.
StatusOr<double> PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return Fail("no VmHWM in /proc/self/status");
}

int64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<int64_t>(in.tellg()) : 0;
}

StatusOr<MatrixBlock> Rand(int64_t rows, int64_t cols, double lo, double hi,
                           uint64_t seed, int threads,
                           sysds::RandPdf pdf = sysds::RandPdf::kUniform) {
  return sysds::RandMatrix(rows, cols, lo, hi, 1.0, seed, pdf, threads);
}

/// Compile-time symbol info of bound inputs, as SystemDSContext::Execute
/// derives it, so a standalone CompileDML compiles the same plan.
sysds::SymbolInfoMap InfosOf(const Inputs& inputs) {
  sysds::SymbolInfoMap infos;
  for (const auto& [name, value] : inputs.Bindings()) {
    sysds::SymbolInfo info;
    if (auto* m = dynamic_cast<sysds::MatrixObject*>(value.get())) {
      info.dt = sysds::DataType::kMatrix;
      info.dim1 = m->Rows();
      info.dim2 = m->Cols();
      info.nnz = m->NonZeros();
    } else if (auto* s = dynamic_cast<sysds::ScalarObject*>(value.get())) {
      info.dt = sysds::DataType::kScalar;
      info.vt = s->GetValueType();
      info.dim1 = 0;
      info.dim2 = 0;
    }
    infos[name] = info;
  }
  return infos;
}

/// Registry counters, instruction count, stall histogram sums and lineage
/// cache statistics at one instant; deltas of two give one operation's
/// counts.
CounterSnapshot Snapshot(const sysds::LineageCache* cache) {
  CounterSnapshot s;
  auto& reg = sysds::obs::MetricsRegistry::Get();
  for (const auto& c : reg.Counters()) s[c.name] = c.value;
  int64_t instructions = 0;
  for (const auto& i : reg.Instructions()) instructions += i.count;
  s["cp.instructions"] = instructions;
  for (const char* h : {"bufferpool.evict_stall_ns", "bufferpool.restore_ns"}) {
    s[std::string(h) + ".sum"] = reg.GetHistogram(h)->Sum();
  }
  if (cache != nullptr) {
    sysds::LineageCacheStats st = cache->Stats();
    s["cache.probes"] = st.probes;
    s["cache.hits"] = st.full_hits + st.partial_hits;
    s["cache.puts"] = st.puts;
    s["cache.evictions"] = st.evictions;
  }
  return s;
}

void Accumulate(CounterSnapshot* sum, const CounterSnapshot& delta) {
  for (const auto& [name, value] : delta) (*sum)[name] += value;
}

int64_t Get(const CounterSnapshot& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0 : it->second;
}

bool SameBits(const MatrixBlock& a, const MatrixBlock& b) {
  if (a.Rows() != b.Rows() || a.Cols() != b.Cols()) return false;
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (int64_t c = 0; c < a.Cols(); ++c) {
      double x = a.Get(r, c), y = b.Get(r, c);
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

/// max |a - b| <= tol * max(1, max |b|).
bool Close(const MatrixBlock& a, const MatrixBlock& b, double tol) {
  if (a.Rows() != b.Rows() || a.Cols() != b.Cols()) return false;
  double diff = 0, scale = 1;
  for (int64_t r = 0; r < a.Rows(); ++r) {
    for (int64_t c = 0; c < a.Cols(); ++c) {
      double x = a.Get(r, c), y = b.Get(r, c);
      if (!std::isfinite(x)) return false;
      diff = std::max(diff, std::fabs(x - y));
      scale = std::max(scale, std::fabs(y));
    }
  }
  return diff <= tol * scale;
}

int CountSubstr(const std::string& text, const std::string& what) {
  int n = 0;
  for (size_t p = text.find(what); p != std::string::npos;
       p = text.find(what, p + what.size())) {
    ++n;
  }
  return n;
}

void ReportError(const std::string& what, const Status& s) {
  static int reported = 0;
  if (reported++ < 5) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 s.ToString().c_str());
  }
}

/// The CPUs this process may run on. The single-threaded measurements
/// (lifecycle scripts, scoring's in-process requests) pin their client
/// thread to each in turn, so that every run samples each CPU equally: on
/// the shared reference host a thread runs up to 2x slower on some vCPUs
/// than on others, and an unpinned thread stays on one for seconds.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    sched_getaffinity(0, sizeof(allowed_), &allowed_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  size_t size() const { return cpus_.size(); }
  /// Pins the calling thread to CPU number `i` (round robin).
  void Pin(size_t i) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  /// Lets the calling thread run on every allowed CPU again.
  void Release() const { sched_setaffinity(0, sizeof(allowed_), &allowed_); }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// ---------------------------------------------------------------------------
// Layer probes shared by all workloads (traced runs only).

/// Kernel throughput on the workload's own matrix, flops and bytes
/// computed from its dims: tsmm = 2*m*n^2 flops, matvec = 8*m*n bytes.
struct KernelNumbers {
  double tsmm_gflops = 0, tsmm_gflops_t1 = 0, matvec_gbs = 0;
};

StatusOr<double> MedianCallSeconds(Tracer& tracer, const char* span,
                                   const std::function<Status()>& call) {
  std::vector<double> times;
  const double start = NowS();
  while (times.size() < 3 || (NowS() - start < 0.25 && times.size() < 200)) {
    ScopedSpan s(tracer, span);
    const double t0 = NowS();
    SYSDS_RETURN_IF_ERROR(call());
    times.push_back(NowS() - t0);
  }
  return Median(times);
}

StatusOr<KernelNumbers> MeasureKernels(const MatrixBlock& x, int threads,
                                       Tracer& tracer) {
  const double m = static_cast<double>(x.Rows());
  const double n = static_cast<double>(x.Cols());
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock v, Rand(x.Cols(), 1, 0, 1, 99, 1));
  auto tsmm = [&](int t) {
    return [&x, t]() {
      return sysds::TransposeSelfMatMult(x, true, t).status();
    };
  };
  KernelNumbers k;
  SYSDS_ASSIGN_OR_RETURN(double t_n,
                         MedianCallSeconds(tracer, "matrix.tsmm", tsmm(threads)));
  SYSDS_ASSIGN_OR_RETURN(double t_1,
                         MedianCallSeconds(tracer, "matrix.tsmm_t1", tsmm(1)));
  SYSDS_ASSIGN_OR_RETURN(
      double t_mv, MedianCallSeconds(tracer, "matrix.matvec", [&]() {
        return sysds::MatMult(x, v, threads).status();
      }));
  k.tsmm_gflops = 2.0 * m * n * n / t_n * 1e-9;
  k.tsmm_gflops_t1 = 2.0 * m * n * n / t_1 * 1e-9;
  k.matvec_gbs = 8.0 * m * n / t_mv * 1e-9;
  return k;
}

/// CSV writer and reader throughput on the workload's own matrix; the
/// round trip must be bit-exact.
struct IoNumbers {
  double read_mb_s = 0, write_mb_s = 0, read_s = 0;
  bool round_trip_ok = false;
};

StatusOr<IoNumbers> MeasureIo(const MatrixBlock& x, const std::string& path,
                              Tracer& tracer) {
  const auto csv = sysds::FormatDescriptor::Csv();
  IoNumbers io;
  double t0 = NowS();
  {
    ScopedSpan s(tracer, "io.write");
    SYSDS_RETURN_IF_ERROR(sysds::io::Write(x, path, csv));
  }
  const double write_s = NowS() - t0;
  t0 = NowS();
  StatusOr<MatrixBlock> back = [&] {
    ScopedSpan s(tracer, "io.read");
    return sysds::io::Read(path, csv);
  }();
  io.read_s = NowS() - t0;
  SYSDS_RETURN_IF_ERROR(back.status());
  const double mb = static_cast<double>(FileBytes(path)) / 1e6;
  io.read_mb_s = mb / io.read_s;
  io.write_mb_s = mb / write_s;
  io.round_trip_ok = SameBits(*back, x);
  std::remove(path.c_str());
  return io;
}

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"lang.parse_ms", "ms"},
      {"compiler.compile_ms", "ms"},
      {"compiler.compile_share", "share"},
      {"compiler.recompilations", "count"},
      {"dist.sp_planned", "count"},
      {"dist.reblocks", "count"},
      {"dist.shuffled_blocks", "count"},
      {"matrix.tsmm_gflops", "GFLOP/s"},
      {"matrix.tsmm_gflops.t1", "GFLOP/s"},
      {"matrix.matvec_gbs", "GB/s"},
      {"controlprog.exec_s", "s"},
      {"controlprog.instructions", "count"},
      {"controlprog.us_per_instruction", "us"},
      {"io.read_mb_s", "MB/s"},
      {"io.write_mb_s", "MB/s"},
      {"io.read_share", "share"},
      {"lineage.probes", "count"},
      {"lineage.hit_ratio", "share"},
      {"lineage.puts", "count"},
      {"lineage.evictions", "count"},
      {"lineage.cache_mb", "MB"},
      {"bufferpool.spilled_mb", "MB"},
      {"bufferpool.restores", "count"},
      {"bufferpool.evictions", "count"},
      {"bufferpool.stall_ms", "ms"},
      {"bufferpool.prefetch_hit_ratio", "share"},
      {"scheduler.tasks", "count"},
      {"scheduler.steals", "count"},
      {"scheduler.tsmm_speedup", "x"},
      {"serve.exec_us.p50", "us"},
      {"serve.queue_share", "share"},
      {"serve.rejected", "count"},
      {"bench.generator_lag_us.p99", "us"},
      {"trace.overhead_frac", "share"},
      {"self_ms.bench", "ms"},
      {"self_ms.lang", "ms"},
      {"self_ms.compiler", "ms"},
      {"self_ms.api", "ms"},
      {"self_ms.serve", "ms"},
  };
  return metrics;
}

void SetLayerDefaults(Result* r) {
  for (const auto& [name, unit] : LayerMetrics()) r->Set(name, 0, unit);
}

/// Counter-derived per-layer metrics, as counts per operation.
void SetCounterLayers(const CounterSnapshot& sum, int64_t ops,
                      const sysds::LineageCache* cache, Result* r) {
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  auto per_op = [&](const char* counter) {
    return static_cast<double>(Get(sum, counter)) / n;
  };
  r->Set("compiler.recompilations", per_op("compiler.recompilations"),
         "count");
  r->Set("dist.reblocks", per_op("spark.reblocks"), "count");
  r->Set("dist.shuffled_blocks", per_op("spark.shuffled_blocks"), "count");
  r->Set("controlprog.instructions", per_op("cp.instructions"), "count");
  r->Set("lineage.probes", per_op("cache.probes"), "count");
  r->Set("lineage.puts", per_op("cache.puts"), "count");
  r->Set("lineage.evictions", per_op("cache.evictions"), "count");
  const int64_t probes = Get(sum, "cache.probes");
  r->Set("lineage.hit_ratio",
         probes > 0 ? static_cast<double>(Get(sum, "cache.hits")) /
                          static_cast<double>(probes)
                    : 0.0,
         "share");
  if (cache != nullptr) {
    r->Set("lineage.cache_mb", static_cast<double>(cache->Stats().bytes) / 1e6,
           "MB");
  }
  r->Set("bufferpool.spilled_mb", per_op("bufferpool.spilled_bytes") / 1e6,
         "MB");
  r->Set("bufferpool.restores", per_op("bufferpool.misses"), "count");
  r->Set("bufferpool.evictions", per_op("bufferpool.evictions"), "count");
  r->Set("bufferpool.stall_ms",
         (per_op("bufferpool.evict_stall_ns.sum") +
          per_op("bufferpool.restore_ns.sum")) /
             1e6,
         "ms");
  const int64_t issued = Get(sum, "bufferpool.prefetch_issued");
  r->Set("bufferpool.prefetch_hit_ratio",
         issued > 0 ? static_cast<double>(Get(sum, "bufferpool.prefetch_hits")) /
                          static_cast<double>(issued)
                    : 0.0,
         "share");
  r->Set("scheduler.tasks", per_op("scheduler.tasks"), "count");
  r->Set("scheduler.steals", per_op("scheduler.steals"), "count");
  r->Set("serve.rejected", static_cast<double>(Get(sum, "serve.rejected")),
         "count");
}

void SetSelfTimes(const Tracer& tracer, int64_t ops, Result* r) {
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  for (const auto& [layer, ns] : SelfTimeByLayer(tracer.spans())) {
    r->Set("self_ms." + layer, static_cast<double>(ns) / 1e6 / n, "ms");
  }
}

Status WriteSpans(const Args& args, const Tracer& tracer) {
  if (!tracer.WriteJson(args.trace_path)) {
    return Fail("cannot write spans to " + args.trace_path);
  }
  return Status::Ok();
}

void SetKernelLayers(const KernelNumbers& k, Result* r) {
  r->Set("matrix.tsmm_gflops", k.tsmm_gflops, "GFLOP/s");
  r->Set("matrix.tsmm_gflops.t1", k.tsmm_gflops_t1, "GFLOP/s");
  r->Set("matrix.matvec_gbs", k.matvec_gbs, "GB/s");
  r->Set("scheduler.tsmm_speedup", k.tsmm_gflops / k.tsmm_gflops_t1, "x");
}

/// Runs `setup` (each run replaces the previous state) at least three
/// times, and up to nine while under 3 s in total; returns the median.
StatusOr<double> RepeatSetup(const std::function<Status()>& setup,
                             Result* r) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 3 || (total < 3.0 && times.size() < 9)) {
    const double t0 = NowS();
    SYSDS_RETURN_IF_ERROR(setup());
    times.push_back(NowS() - t0);
    total += times.back();
  }
  r->Meta("setup_samples", static_cast<double>(times.size()));
  return Median(times);
}

// ---------------------------------------------------------------------------
// Batch workloads: one client runs scripts back to back (closed loop).

struct ScriptCall {
  std::string text;
  Inputs inputs;
  std::vector<std::string> outputs;
};

struct BatchWorkload {
  std::function<ScriptCall(int64_t op)> make;
  std::function<bool(int64_t op, const ScriptResult&)> check;
};

/// Samples and (when traced) layer numbers of one measured phase.
struct BatchPhase {
  std::vector<double> script_s;
  std::vector<double> parse_ms, compile_ms, exec_s, sp_planned;
  CounterSnapshot counters;
};

/// Runs scripts from op id `next_op` on until `seconds` have passed (and at
/// least `min_scripts` ran); every script's output is checked. With
/// `rotation`, each script runs pinned to the next CPU.
void RunBatchPhase(SystemDSContext& ctx, const BatchWorkload& w,
                   int64_t* next_op, double seconds, size_t min_scripts,
                   const CpuRotation* rotation, Tracer& tracer,
                   FailureTally* tally, BatchPhase* out) {
  const double deadline = NowS() + seconds;
  while (out->script_s.size() < min_scripts || NowS() < deadline) {
    const int64_t op = (*next_op)++;
    if (rotation != nullptr) rotation->Pin(static_cast<size_t>(op));
    ScriptCall call = w.make(op);
    ScopedSpan root(tracer, "bench.script", op);
    double compile_ms = 0;
    CounterSnapshot before;
    if (tracer.on()) {
      double t0 = NowS();
      {
        ScopedSpan s(tracer, "lang.parse");
        StatusOr<sysds::DMLProgram> ast = sysds::ParseDML(call.text);
        if (!ast.ok()) ReportError("parse", ast.status());
      }
      out->parse_ms.push_back((NowS() - t0) * 1e3);
      t0 = NowS();
      StatusOr<std::unique_ptr<sysds::Program>> program = [&] {
        ScopedSpan s(tracer, "compiler.compile");
        return sysds::CompileDML(call.text, ctx.config(),
                                 InfosOf(call.inputs));
      }();
      compile_ms = (NowS() - t0) * 1e3;
      out->compile_ms.push_back(compile_ms);
      if (program.ok()) {
        ScopedSpan s(tracer, "compiler.explain");
        out->sp_planned.push_back(CountSubstr((*program)->Explain(), "sp_"));
      }
      before = Snapshot(ctx.Cache());
    }
    const int64_t t0 = NowNs();
    StatusOr<ScriptResult> r = [&] {
      ScopedSpan s(tracer, "api.execute");
      return ctx.Execute(call.text, call.inputs,
                         Outputs::FromVector(call.outputs));
    }();
    const double dt = static_cast<double>(NowNs() - t0) * 1e-9;
    if (tracer.on()) {
      Accumulate(&out->counters,
                 CounterDelta(before, Snapshot(ctx.Cache())));
      out->exec_s.push_back(dt - compile_ms / 1e3);
    }
    bool output_ok = false;
    if (r.ok()) {
      ScopedSpan s(tracer, "bench.check");
      output_ok = w.check(op, *r);
    } else {
      ReportError("script " + std::to_string(op), r.status());
    }
    tally->Record(r.ok(), false, output_ok);
    out->script_s.push_back(dt);
  }
  if (rotation != nullptr) rotation->Release();
}

/// The program installs one process-wide buffer pool, the pool of the
/// context built or executed last (MatrixObject::SetBufferPool). A matrix
/// object created while another context's pool is installed stays
/// registered there after it dies, and that pool later evicts a dangling
/// object. The benchmark therefore keeps exactly one context alive at a
/// time, and builds it fresh for the traced phase.
struct BatchEnv {
  SystemDSContext::Builder builder;  // the workload's configuration
  std::unique_ptr<SystemDSContext> ctx;
  BatchWorkload workload;
  const MatrixBlock* x = nullptr;  // the workload's own X, for kernel/io probes
  bool script_reads_x = false;     // the script reads X from CSV
  bool fill_cache = false;         // warm up until the lineage cache evicts
  double tail = 0.5;               // the percentile latency_s.tail reports
  size_t min_scripts = 3;          // measured scripts per untraced run
  bool rotate_cpus = false;        // single-threaded: see CpuRotation
  int64_t next_op = 0;             // op 0 is the first warm-up script
};

/// Warm-up: one script (from op env.next_op on), checked like every other.
/// With `fill_cache`, further scripts run until the lineage cache evicts,
/// so measurement starts in the cache's steady state.
Status WarmUp(BatchEnv& env, FailureTally* tally) {
  constexpr int64_t kMaxWarmScripts = 200;
  const int64_t first = env.next_op;
  do {
    const int64_t op = env.next_op++;
    ScriptCall warm = env.workload.make(op);
    StatusOr<ScriptResult> res = env.ctx->Execute(
        warm.text, warm.inputs, Outputs::FromVector(warm.outputs));
    if (!res.ok()) return res.status();
    tally->Record(true, false, env.workload.check(op, *res));
  } while (env.fill_cache && env.ctx->Cache()->Stats().evictions == 0 &&
           env.next_op - first < kMaxWarmScripts);
  return Status::Ok();
}

/// The tail percentile is fixed per workload (p90 for lifecycle, whose
/// runs measure enough scripts; the median for the lm_* workloads, whose
/// runs hold a handful), so every run of a workload reports the same
/// statistic.
void SetBatchEndToEnd(const std::vector<double>& s, double tail, Result* r) {
  double total = 0;
  for (double v : s) total += v;
  r->Set("latency_s.p50", Percentile(s, 0.5), "s");
  r->Set("latency_s.tail", Percentile(s, tail), "s");
  r->Set("throughput_per_s", static_cast<double>(s.size()) / total, "1/s");
  r->Meta("script_samples", static_cast<double>(s.size()));
  r->Meta("tail_percentile", tail);
  r->Meta("tail_supported_percentile", SupportedPercentile(s.size()));
}

/// Shared measurement of the batch workloads after set-up.
Status MeasureBatch(const Args& args, BatchEnv& env, int threads,
                    Result* r) {
  Tracer off(false);
  int64_t& next_op = env.next_op;
  const CpuRotation cpus;
  const CpuRotation* rotation = env.rotate_cpus ? &cpus : nullptr;
  if (rotation != nullptr) r->Meta("rotation_cpus", cpus.size());
  if (!args.trace) {
    BatchPhase phase;
    SYSDS_RETURN_IF_ERROR(ResetPeakRss());
    RunBatchPhase(*env.ctx, env.workload, &next_op, args.seconds,
                  env.min_scripts, rotation, off, &r->tally, &phase);
    SYSDS_ASSIGN_OR_RETURN(double peak_mb, PeakRssMb());
    r->Set("peak_rss_mb", peak_mb, "MB");
    SetBatchEndToEnd(phase.script_s, env.tail, r);
    return Status::Ok();
  }
  SetLayerDefaults(r);
  Tracer tracer(true);
  BatchPhase plain, traced;
  RunBatchPhase(*env.ctx, env.workload, &next_op, args.seconds / 2, 2,
                rotation, off, &r->tally, &plain);
  // The traced context also records per-instruction statistics.
  env.ctx.reset();
  env.ctx = env.builder.Statistics(true).Build();
  if (env.fill_cache) SYSDS_RETURN_IF_ERROR(WarmUp(env, &r->tally));
  RunBatchPhase(*env.ctx, env.workload, &next_op, args.seconds / 2, 2,
                rotation, tracer, &r->tally, &traced);
  const int64_t ops = static_cast<int64_t>(traced.script_s.size());
  const double script_p50 = Median(traced.script_s);
  const double compile_ms = Median(traced.compile_ms);
  r->Set("lang.parse_ms", Median(traced.parse_ms), "ms");
  r->Set("compiler.compile_ms", compile_ms, "ms");
  r->Set("compiler.compile_share", compile_ms / 1e3 / script_p50, "share");
  r->Set("dist.sp_planned", Median(traced.sp_planned), "count");
  const double exec_s = Median(traced.exec_s);
  r->Set("controlprog.exec_s", exec_s, "s");
  SetCounterLayers(traced.counters, ops, env.ctx->Cache(), r);
  const double instr = r->metrics["controlprog.instructions"].value;
  r->Set("controlprog.us_per_instruction", instr > 0 ? exec_s * 1e6 / instr : 0,
         "us");
  r->Set("trace.overhead_frac",
         script_p50 / Median(plain.script_s) - 1.0, "share");

  SYSDS_ASSIGN_OR_RETURN(KernelNumbers k,
                         MeasureKernels(*env.x, threads, tracer));
  SetKernelLayers(k, r);
  SYSDS_ASSIGN_OR_RETURN(
      IoNumbers io, MeasureIo(*env.x, args.work_dir + "/io_probe.csv", tracer));
  r->tally.Record(true, false, io.round_trip_ok);
  r->Set("io.read_mb_s", io.read_mb_s, "MB/s");
  r->Set("io.write_mb_s", io.write_mb_s, "MB/s");
  r->Set("io.read_share", env.script_reads_x ? io.read_s / script_p50 : 0.0,
         "share");
  SetSelfTimes(tracer, ops, r);
  r->Meta("traced_scripts", static_cast<double>(ops));
  return WriteSpans(args, tracer);
}

// --- lm_sweep / lm_spill ----------------------------------------------------

/// X, y and, for lm_sweep's oracle B = solve(X'X + lambda I, X'y), X'X and
/// X'y computed with the program's kernels outside any script.
struct LmData {
  MatrixBlock x, y, xtx, xty;
};

/// B (cols x k) and the residual sums (k x 1) of one sweep.
using LmOutputs = std::pair<MatrixBlock, MatrixBlock>;

StatusOr<LmData> MakeLmData(int64_t rows, int64_t cols, uint64_t seed,
                            int threads) {
  LmData d;
  SYSDS_ASSIGN_OR_RETURN(d.x, Rand(rows, cols, 0, 1, seed, threads));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock w, Rand(cols, 1, -1, 1, seed + 1, 1));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock noise,
                         Rand(rows, 1, 0, 1, seed + 2, threads,
                              sysds::RandPdf::kNormal));
  SYSDS_ASSIGN_OR_RETURN(d.y, sysds::MatMult(d.x, w, threads));
  for (int64_t i = 0; i < rows; ++i) {
    d.y.DenseRow(i)[0] += 0.01 * noise.Get(i, 0);
  }
  d.y.MarkNnzDirty();
  return d;
}

Status AddOracle(LmData* d, int threads) {
  SYSDS_ASSIGN_OR_RETURN(d->xtx,
                         sysds::TransposeSelfMatMult(d->x, true, threads));
  SYSDS_ASSIGN_OR_RETURN(d->xty,
                         sysds::TransposeLeftMatMult(d->x, d->y, threads));
  return Status::Ok();
}

/// A lambda grid of `models` values scale * 1e-1, 1e-2, ... The warm-up
/// script trains one model (every code path of the sweep at an eighth of
/// its cost); measured scripts train kLambdas.
MatrixBlock LambdaGrid(int models, double scale) {
  MatrixBlock l = MatrixBlock::Dense(models, 1);
  for (int i = 0; i < models; ++i) {
    l.DenseRow(i)[0] = scale * std::pow(10.0, -(i + 1));
  }
  l.MarkNnzDirty();
  return l;
}

/// lm_sweep scales its grid per script so consecutive scripts train
/// different models.
MatrixBlock SweepGrid(int64_t op) {
  return op == 0 ? LambdaGrid(1, 1.0)
                 : LambdaGrid(kLambdas, 1.0 + 0.25 * static_cast<double>(op % 4));
}

/// lm_spill trains the same grid on every script, so one reference run
/// checks them all.
MatrixBlock SpillGrid(int64_t op) {
  return op == 0 ? LambdaGrid(1, 1.0) : LambdaGrid(kLambdas, 1.0);
}

/// The oracle's outputs for a lambda grid.
StatusOr<LmOutputs> LmOracle(const LmData& d, const MatrixBlock& l,
                             int threads) {
  const int64_t n = d.x.Cols(), k = l.Rows();
  MatrixBlock b = MatrixBlock::Dense(n, k);
  for (int64_t i = 0; i < k; ++i) {
    MatrixBlock a = d.xtx;
    for (int64_t j = 0; j < n; ++j) a.Set(j, j, a.Get(j, j) + l.Get(i, 0));
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock bi, sysds::Solve(a, d.xty));
    for (int64_t j = 0; j < n; ++j) b.Set(j, i, bi.Get(j, 0));
  }
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock xb, sysds::MatMult(d.x, b, threads));
  MatrixBlock rss = MatrixBlock::Dense(k, 1);
  for (int64_t i = 0; i < k; ++i) {
    double s = 0;
    for (int64_t r = 0; r < d.x.Rows(); ++r) {
      const double e = xb.Get(r, i) - d.y.Get(r, 0);
      s += e * e;
    }
    rss.Set(i, 0, s);
  }
  return std::make_pair(std::move(b), std::move(rss));
}

Status RunLmSweep(const Args& args, Result* r) {
  SYSDS_ASSIGN_OR_RETURN(std::string text,
                         ReadText(args.scripts_dir + "/lm_sweep.dml"));
  const std::string xfile = args.work_dir + "/X.csv";
  const std::string yfile = args.work_dir + "/y.csv";
  const std::string bfile = args.work_dir + "/B.csv";
  auto data = std::make_shared<LmData>();
  BatchEnv env;
  auto setup = [&]() -> Status {
    *data = LmData{};  // free the previous set-up's data first
    SYSDS_ASSIGN_OR_RETURN(*data, MakeLmData(kSweepRows, kSweepCols,
                                             args.seed, kSweepThreads));
    SYSDS_RETURN_IF_ERROR(AddOracle(data.get(), kSweepThreads));
    const auto csv = sysds::FormatDescriptor::Csv();
    SYSDS_RETURN_IF_ERROR(sysds::io::Write(data->x, xfile, csv));
    SYSDS_RETURN_IF_ERROR(sysds::io::Write(data->y, yfile, csv));
    env.ctx.reset();
    env.builder = SystemDSContext::Builder()
                       .NumThreads(kSweepThreads)
                       .Reuse(sysds::ReusePolicy::kNone);
    env.ctx = env.builder.Build();
    env.next_op = 0;
    env.x = &data->x;
    env.script_reads_x = true;
    env.workload.make = [text, xfile, yfile, bfile](int64_t op) {
      ScriptCall c;
      c.text = text;
      c.inputs.String("xfile", xfile)
          .String("yfile", yfile)
          .String("bfile", bfile)
          .Matrix("lambdas", SweepGrid(op));
      c.outputs = {"B", "rss"};
      return c;
    };
    env.workload.check = [data, bfile](int64_t op, const ScriptResult& res) {
      StatusOr<MatrixBlock> b = res.GetMatrix("B");
      StatusOr<MatrixBlock> rss = res.GetMatrix("rss");
      auto oracle = LmOracle(*data, SweepGrid(op), kSweepThreads);
      StatusOr<MatrixBlock> written =
          sysds::io::Read(bfile, sysds::FormatDescriptor::Csv());
      return b.ok() && rss.ok() && oracle.ok() && written.ok() &&
             Close(*b, oracle->first, kOracleRelTol) &&
             Close(*rss, oracle->second, kOracleRelTol) &&
             SameBits(*written, *b);
    };
    return WarmUp(env, &r->tally);
  };
  SYSDS_ASSIGN_OR_RETURN(double setup_s, RepeatSetup(setup, r));
  r->Set("setup_s", setup_s, "s");
  r->Meta("rows", kSweepRows);
  r->Meta("cols", kSweepCols);
  r->Meta("models_per_script", kLambdas);
  r->Meta("kernel_threads", kSweepThreads);
  r->Meta("csv_mb", static_cast<double>(FileBytes(xfile)) / 1e6);
  r->Meta("reuse", "none");
  r->Meta("oracle_rel_tol", kOracleRelTol);
  return MeasureBatch(args, env, kSweepThreads, r);
}

Status RunLmSpill(const Args& args, Result* r) {
  SYSDS_ASSIGN_OR_RETURN(std::string text,
                         ReadText(args.scripts_dir + "/lm_spill.dml"));
  const int64_t x_bytes = kSpillRows * kSpillCols * 8;
  const auto pool_limit =
      static_cast<int64_t>(kSpillPoolShare * static_cast<double>(x_bytes));
  auto data = std::make_shared<LmData>();
  auto make = [text, data](int64_t op) {
    ScriptCall c;
    c.text = text;
    c.inputs.Matrix("X", data->x)
        .Matrix("y", data->y)
        .Matrix("lambdas", SpillGrid(op));
    c.outputs = {"B", "rss"};
    return c;
  };
  // References for the check: the warm-up (op 0) and measured (op 1)
  // scripts under an unbounded pool, computed once before (and not
  // counted in) set-up.
  auto reference = std::make_shared<std::pair<LmOutputs, LmOutputs>>();
  {
    SYSDS_ASSIGN_OR_RETURN(*data, MakeLmData(kSpillRows, kSpillCols,
                                             args.seed, kSpillThreads));
    auto unbounded = SystemDSContext::Builder()
                         .NumThreads(kSpillThreads)
                         .Reuse(sysds::ReusePolicy::kNone)
                         .Build();
    for (int64_t op : {0, 1}) {
      ScriptCall ref = make(op);
      SYSDS_ASSIGN_OR_RETURN(
          ScriptResult res,
          unbounded->Execute(ref.text, ref.inputs,
                             Outputs::FromVector(ref.outputs)));
      LmOutputs& out = op == 0 ? reference->first : reference->second;
      SYSDS_ASSIGN_OR_RETURN(out.first, res.GetMatrix("B"));
      SYSDS_ASSIGN_OR_RETURN(out.second, res.GetMatrix("rss"));
    }
  }
  BatchEnv env;
  auto setup = [&]() -> Status {
    *data = LmData{};  // free the previous set-up's data first
    SYSDS_ASSIGN_OR_RETURN(*data, MakeLmData(kSpillRows, kSpillCols,
                                             args.seed, kSpillThreads));
    env.ctx.reset();
    env.builder = SystemDSContext::Builder()
                       .NumThreads(kSpillThreads)
                       .Reuse(sysds::ReusePolicy::kNone)
                       .BufferPoolLimit(pool_limit);
    env.ctx = env.builder.Build();
    env.next_op = 0;
    env.x = &data->x;
    env.workload.make = make;
    env.workload.check = [reference](int64_t op, const ScriptResult& res) {
      const LmOutputs& want = op == 0 ? reference->first : reference->second;
      StatusOr<MatrixBlock> b = res.GetMatrix("B");
      StatusOr<MatrixBlock> rss = res.GetMatrix("rss");
      return b.ok() && rss.ok() && SameBits(*b, want.first) &&
             SameBits(*rss, want.second);
    };
    return WarmUp(env, &r->tally);
  };
  SYSDS_ASSIGN_OR_RETURN(double setup_s, RepeatSetup(setup, r));
  r->Set("setup_s", setup_s, "s");
  r->Meta("rows", kSpillRows);
  r->Meta("cols", kSpillCols);
  r->Meta("models_per_script", kLambdas);
  r->Meta("kernel_threads", kSpillThreads);
  r->Meta("x_mb", static_cast<double>(x_bytes) / 1e6);
  r->Meta("pool_limit_mb", static_cast<double>(pool_limit) / 1e6);
  r->Meta("reuse", "none");
  return MeasureBatch(args, env, kSpillThreads, r);
}

// --- lifecycle ------------------------------------------------------------

/// Data of script `op`: X uniform with one outlier and one missing cell,
/// y = 5*X[,2] - 3*X[,7] + 0.01*noise (the data of lifecycle.dml).
StatusOr<std::pair<MatrixBlock, MatrixBlock>> LifecycleData(uint64_t seed,
                                                            int64_t op) {
  const uint64_t s = seed * 1000003ULL + static_cast<uint64_t>(op) * 2;
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock x,
                         Rand(kLifeRows, kLifeCols, 0, 1, s, kLifeThreads));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock noise,
                         Rand(kLifeRows, 1, 0, 1, s + 1, kLifeThreads,
                              sysds::RandPdf::kNormal));
  MatrixBlock y = MatrixBlock::Dense(kLifeRows, 1);
  for (int64_t i = 0; i < kLifeRows; ++i) {
    y.DenseRow(i)[0] =
        5 * x.Get(i, 1) - 3 * x.Get(i, 6) + 0.01 * noise.Get(i, 0);
  }
  y.MarkNnzDirty();
  x.Set(16, 2, 1000);                                       // outlier
  x.Set(41, 4, std::numeric_limits<double>::quiet_NaN());  // missing
  x.MarkNnzDirty();
  return std::make_pair(std::move(x), std::move(y));
}

Status RunLifecycle(const Args& args, Result* r) {
  SYSDS_ASSIGN_OR_RETURN(std::string text,
                         ReadText(args.scripts_dir + "/lifecycle.dml"));
  BatchEnv env;
  MatrixBlock probe_x;  // the first script's X, for kernel/io probes
  auto setup = [&]() -> Status {
    env.ctx.reset();
    env.builder = SystemDSContext::Builder()
                       .NumThreads(kLifeThreads)
                       .Reuse(sysds::ReusePolicy::kPartial)
                       .LineageCacheLimit(kLifeCacheBytes);
    env.ctx = env.builder.Build();
    env.next_op = 0;
    env.fill_cache = true;
    env.tail = kLifeTail;
    env.min_scripts = kLifeMinScripts;
    env.rotate_cpus = true;
    SYSDS_ASSIGN_OR_RETURN(auto first, LifecycleData(args.seed, 0));
    probe_x = std::move(first.first);
    env.x = &probe_x;
    const uint64_t seed = args.seed;
    env.workload.make = [text, seed](int64_t op) {
      ScriptCall c;
      c.text = text;
      auto d = LifecycleData(seed, op);
      if (d.ok()) c.inputs.Matrix("X", d->first).Matrix("y", d->second);
      c.outputs = {"S", "e_r2"};
      return c;
    };
    env.workload.check = [](int64_t, const ScriptResult& res) {
      StatusOr<MatrixBlock> s = res.GetMatrix("S");
      StatusOr<double> r2 = res.GetDouble("e_r2");
      if (!s.ok() || !r2.ok() || s->Cols() != kLifeCols) return false;
      // S holds each feature's selection order (0 = not selected). The
      // two features y depends on, 2 and 7, must be selected first; AIC
      // may go on to admit noise features after them.
      for (int64_t c = 0; c < kLifeCols; ++c) {
        const bool signal = c == 1 || c == 6;
        const double order = s->Get(0, c);
        if (signal != (order == 1 || order == 2)) return false;
      }
      return *r2 >= kLifecycleMinR2;
    };
    return WarmUp(env, &r->tally);
  };
  SYSDS_ASSIGN_OR_RETURN(double setup_s, RepeatSetup(setup, r));
  r->Set("setup_s", setup_s, "s");
  r->Meta("rows", kLifeRows);
  r->Meta("cols", kLifeCols);
  r->Meta("kernel_threads", kLifeThreads);
  r->Meta("reuse", "partial");
  r->Meta("lineage_cache_mb", static_cast<double>(kLifeCacheBytes) / 1e6);
  r->Meta("min_r2", kLifecycleMinR2);
  return MeasureBatch(args, env, kLifeThreads, r);
}

// ---------------------------------------------------------------------------
// scoring: an open loop against ScoringService.

/// Request inputs: row_i = a*base[k1] + b*base[k2], so the expected answer
/// a*E[k1] + b*E[k2] (E = base . P) checks each response cheaply.
struct ScoringModel {
  MatrixBlock w, p;
  std::vector<MatrixBlock> base, expect;
  DataPtr w_obj;  // one object, so P's lineage is the same on every request
};

struct RowSpec {
  int64_t k1 = 0, k2 = 0;
  double a = 0, b = 0;
};

class RowSource {
 public:
  RowSource(const ScoringModel& m, uint64_t seed) : m_(m), rng_(seed) {}

  RowSpec Next() {
    std::uniform_int_distribution<int64_t> pick(0, kScoreBaseRows - 1);
    std::uniform_real_distribution<double> coef(0.5, 1.5);
    RowSpec s;
    s.k1 = pick(rng_);
    s.k2 = pick(rng_);
    s.a = coef(rng_);
    s.b = coef(rng_);
    return s;
  }

  Inputs Make(const RowSpec& s) const {
    MatrixBlock row = MatrixBlock::Dense(1, kFeatures);
    const double* x1 = m_.base[static_cast<size_t>(s.k1)].DenseRow(0);
    const double* x2 = m_.base[static_cast<size_t>(s.k2)].DenseRow(0);
    double* out = row.DenseRow(0);
    for (int64_t j = 0; j < kFeatures; ++j) out[j] = s.a * x1[j] + s.b * x2[j];
    row.MarkNnzDirty();
    Inputs in;
    in.Matrix("X", std::move(row)).Bind("W", m_.w_obj);
    return in;
  }

  bool Check(const RowSpec& s, const ScriptResult& res) const {
    StatusOr<MatrixBlock> y = res.GetMatrix("yhat");
    if (!y.ok() || y->Rows() != 1 || y->Cols() != kFeatures) return false;
    const MatrixBlock& e1 = m_.expect[static_cast<size_t>(s.k1)];
    const MatrixBlock& e2 = m_.expect[static_cast<size_t>(s.k2)];
    double diff = 0, scale = 1e-300;
    for (int64_t j = 0; j < kFeatures; ++j) {
      const double want = s.a * e1.Get(0, j) + s.b * e2.Get(0, j);
      diff = std::max(diff, std::fabs(y->Get(0, j) - want));
      scale = std::max(scale, std::fabs(want));
    }
    return diff <= kScoreRelTol * scale;
  }

 private:
  const ScoringModel& m_;
  std::mt19937_64 rng_;
};

StatusOr<ScoringModel> MakeScoringModel(uint64_t seed) {
  ScoringModel m;
  SYSDS_ASSIGN_OR_RETURN(m.w, Rand(kFeatures, kFeatures, 0, 1.0 / 16, seed, 1));
  SYSDS_ASSIGN_OR_RETURN(m.p, sysds::TransposeSelfMatMult(m.w, true, 1));
  SYSDS_ASSIGN_OR_RETURN(MatrixBlock rows,
                         Rand(kScoreBaseRows, kFeatures, 0, 1, seed + 1, 1));
  for (int64_t i = 0; i < kScoreBaseRows; ++i) {
    MatrixBlock row = MatrixBlock::Dense(1, kFeatures);
    std::copy(rows.DenseRow(i), rows.DenseRow(i) + kFeatures, row.DenseRow(0));
    row.MarkNnzDirty();
    SYSDS_ASSIGN_OR_RETURN(MatrixBlock e, sysds::MatMult(row, m.p, 1));
    m.base.push_back(std::move(row));
    m.expect.push_back(std::move(e));
  }
  m.w_obj = SystemDSContext::Matrix(m.w);
  return m;
}

struct Service {
  std::unique_ptr<SystemDSContext> ctx;
  std::shared_ptr<const sysds::PreparedScript> script;
  std::unique_ptr<sysds::serve::ScoringService> svc;
};

StatusOr<Service> MakeService(const std::string& text, bool statistics) {
  Service s;
  auto builder = SystemDSContext::Builder()
                     .NumThreads(kScoreKernelThreads)
                     .Reuse(sysds::ReusePolicy::kFull)
                     .LineageCacheLimit(kScoreCacheBytes);
  if (statistics) builder.Statistics(true);
  s.ctx = builder.Build();
  sysds::SymbolInfo row{sysds::DataType::kMatrix, sysds::ValueType::kFP64, 1,
                        kFeatures, -1};
  sysds::SymbolInfo w{sysds::DataType::kMatrix, sysds::ValueType::kFP64,
                      kFeatures, kFeatures, -1};
  SYSDS_ASSIGN_OR_RETURN(auto prepared,
                         s.ctx->Prepare(text, {{"X", row}, {"W", w}}));
  s.script = std::shared_ptr<const sysds::PreparedScript>(std::move(prepared));
  sysds::serve::ServiceOptions opts;
  opts.num_workers = kScoreWorkers;
  // Deep enough that the open loop is never refused; overload shows up as
  // latency and backlog instead.
  opts.max_queue_depth = 1 << 20;
  s.svc = std::make_unique<sysds::serve::ScoringService>(opts);
  SYSDS_RETURN_IF_ERROR(s.svc->RegisterModel("m", s.script, {"yhat"}));
  return s;
}

bool IsRejected(const Status& s) { return s.code() == sysds::StatusCode::kOom; }

/// Results of one fixed offered rate.
struct RateStep {
  double offered_rps = 0;
  std::vector<double> latency_us;  // from the scheduled send time
  std::vector<double> lag_us;      // how late each send left the generator
  int64_t backlog_at_end = 0;      // requests outstanding when sending ended
};

/// Requests a closed loop with 8 outstanding completed, over its wall
/// time and over the process CPU time it took (which host stalls and lock
/// waits do not consume).
struct ClosedLoop {
  int64_t done = 0;
  double wall_s = 0, cpu_s = 0;
};

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

ClosedLoop RunClosedLoop(sysds::serve::ScoringService& svc, RowSource& rows,
                         double seconds, FailureTally* tally) {
  constexpr size_t kWindow = 8;
  std::deque<std::pair<RowSpec, std::future<StatusOr<ScriptResult>>>> inflight;
  ClosedLoop c;
  auto finish_one = [&] {
    auto& [spec, fut] = inflight.front();
    StatusOr<ScriptResult> res = fut.get();
    const bool rejected = !res.ok() && IsRejected(res.status());
    tally->Record(res.ok(), rejected, res.ok() && rows.Check(spec, *res));
    inflight.pop_front();
    ++c.done;
  };
  const double t0 = NowS(), cpu0 = ProcessCpuSeconds();
  while (NowS() - t0 < seconds) {
    if (inflight.size() >= kWindow) finish_one();
    RowSpec spec = rows.Next();
    inflight.emplace_back(spec, svc.Submit("m", rows.Make(spec)));
  }
  while (!inflight.empty()) finish_one();
  c.wall_s = NowS() - t0;
  c.cpu_s = ProcessCpuSeconds() - cpu0;
  return c;
}

/// PreparedScript::Execute called directly on this thread, one request at
/// a time with no queue in front (the in-process JMLC path): per-request
/// latency in microseconds.
std::vector<double> RunDirect(const Service& service, RowSource& rows,
                              double seconds, Tracer& tracer, int64_t first_op,
                              FailureTally* tally) {
  std::vector<double> exec_us;
  const double end = NowS() + seconds;
  int64_t op = first_op;
  while (exec_us.size() < 100 || NowS() < end) {
    RowSpec spec = rows.Next();
    Inputs in = rows.Make(spec);
    const int64_t t0 = NowNs();
    StatusOr<ScriptResult> res = [&] {
      ScopedSpan s(tracer, "serve.execute", op++);
      return service.script->Execute(in, Outputs("yhat"));
    }();
    exec_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    tally->Record(res.ok(), false, res.ok() && rows.Check(spec, *res));
  }
  return exec_us;
}

/// Warm-up: closed-loop requests until the lineage cache evicts (at most
/// 2 s), so measurement starts with a full cache whose puts churn.
void FillCache(Service& service, RowSource& rows, FailureTally* tally) {
  const double end = NowS() + 2.0;
  do {
    RunClosedLoop(*service.svc, rows, 0.05, tally);
  } while (service.ctx->Cache()->Stats().evictions == 0 && NowS() < end);
}

/// Open loop: Poisson arrivals at `rate` for `seconds`. The calling thread
/// generates; one collector thread waits on responses in send order and
/// stamps completion times. A response that finished while the collector
/// waited on an earlier one is stamped late by at most that wait.
RateStep RunRate(sysds::serve::ScoringService& svc, RowSource& rows,
                 double rate, double seconds, uint64_t seed,
                 FailureTally* tally, Tracer* tracer, int64_t first_op) {
  struct Slot {
    RowSpec spec;
    int64_t sched_ns = 0, sent_ns = 0, submitted_ns = 0, done_ns = 0;
    std::future<StatusOr<ScriptResult>> fut;
    bool ok = false, rejected = false, output_ok = false;
  };
  const auto capacity = static_cast<size_t>(rate * seconds * 1.5) + 1000;
  std::vector<Slot> slots(capacity);
  constexpr int64_t kDone = int64_t{1} << 62;
  std::atomic<int64_t> published{0};
  std::atomic<int64_t> completed{0};

  std::thread collector([&] {
    int64_t i = 0;
    for (;;) {
      const int64_t v = published.load(std::memory_order_acquire);
      const int64_t n = v & ~kDone;
      if (i == n) {
        if ((v & kDone) != 0) break;
        published.wait(v, std::memory_order_acquire);
        continue;
      }
      Slot& s = slots[static_cast<size_t>(i)];
      StatusOr<ScriptResult> res = s.fut.get();
      s.done_ns = NowNs();
      s.ok = res.ok();
      s.rejected = !res.ok() && IsRejected(res.status());
      s.output_ok = res.ok() && rows.Check(s.spec, *res);
      completed.store(++i, std::memory_order_release);
    }
  });

  // Sleep until 30 us before each send, then spin; a 1 ns timer slack
  // keeps the sleeps from overshooting by the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1);
  constexpr int64_t kSpinNs = 30000;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  const int64_t start = NowNs() + 1000000;  // first send 1 ms from now
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t sched = start;
  size_t n = 0;
  while (n < capacity) {
    sched += static_cast<int64_t>(gap(rng) * 1e9);
    if (sched >= end) break;
    Slot& s = slots[n];
    s.spec = rows.Next();
    Inputs in = rows.Make(s.spec);
    s.sched_ns = sched;
    int64_t now = NowNs();
    if (sched - now > kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(sched - now - kSpinNs));
    }
    while ((now = NowNs()) < sched) {
    }
    s.sent_ns = now;
    s.fut = svc.Submit("m", std::move(in));
    s.submitted_ns = NowNs();
    ++n;
    published.store(static_cast<int64_t>(n), std::memory_order_release);
    published.notify_one();
  }
  RateStep step;
  step.offered_rps = rate;
  step.backlog_at_end =
      static_cast<int64_t>(n) - completed.load(std::memory_order_acquire);
  published.store(static_cast<int64_t>(n) | kDone, std::memory_order_release);
  published.notify_one();
  collector.join();

  for (size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    const bool good = s.ok && s.output_ok;
    tally->Record(s.ok, s.rejected, s.output_ok);
    step.latency_us.push_back(
        good ? static_cast<double>(s.done_ns - s.sched_ns) / 1e3
             : kFailedLatencyUs);
    step.lag_us.push_back(static_cast<double>(s.sent_ns - s.sched_ns) / 1e3);
    if (tracer != nullptr && tracer->on()) {
      const int64_t op = first_op + static_cast<int64_t>(i);
      const int64_t root =
          tracer->Add("bench.request", s.sched_ns, s.done_ns, -1, op);
      tracer->Add("serve.submit", s.sent_ns, s.submitted_ns, root, op);
    }
  }
  return step;
}

double StepLatency(const RateStep& s, double p) {
  return WindowedPercentile(s.latency_us, kWindows, p);
}

/// A rate meets the limit when its tail latency (failures counted as
/// misses) is within the limit and the backlog left when sending stopped
/// is no more than one limit's worth of arrivals plus one per worker.
bool MeetsLimit(const RateStep& s) {
  if (s.latency_us.size() < 100) return false;
  const double backlog_ok = s.offered_rps * kTailLimitUs * 1e-6 + kScoreWorkers;
  return StepLatency(s, kScoreTail) <= kTailLimitUs &&
         static_cast<double>(s.backlog_at_end) <= backlog_ok;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void MetaRate(const std::string& name, const RateStep& s, Result* r) {
  r->Meta("latency_us.p50." + name, StepLatency(s, 0.5));
  r->Meta("latency_us.p90." + name, StepLatency(s, 0.9));
  r->Meta("latency_us.p99." + name, Percentile(s.latency_us, 0.99));
  r->Meta("samples." + name, static_cast<double>(s.latency_us.size()));
  r->Meta("tail_supported_percentile." + name,
          SupportedPercentile(s.latency_us.size()));
  r->Meta("generator_lag_us.p99." + name, Percentile(s.lag_us, 0.99));
}

Status RunScoring(const Args& args, Result* r) {
  // One malloc arena for every thread. With glibc's default of one arena
  // per thread, the churned lineage cache of the worker threads sat in two
  // or three arenas at 2.4-5 MB resident each, depending on which arena
  // each worker picked up, and peak_rss_mb spread by 0.2-0.35 over ten
  // seeds; with one arena it reads the same to 0.1 MB.
  mallopt(M_ARENA_MAX, 1);
  r->Meta("malloc_arenas", 1);
  SYSDS_ASSIGN_OR_RETURN(std::string text,
                         ReadText(args.scripts_dir + "/scoring.dml"));
  auto model = std::make_shared<ScoringModel>();
  Service service;
  auto setup = [&]() -> Status {
    service = Service{};
    *model = ScoringModel{};  // free the previous set-up's model first
    SYSDS_ASSIGN_OR_RETURN(*model, MakeScoringModel(args.seed));
    SYSDS_ASSIGN_OR_RETURN(service, MakeService(text, false));
    RowSource warm_rows(*model, args.seed + 7);
    FillCache(service, warm_rows, &r->tally);
    return Status::Ok();
  };
  SYSDS_ASSIGN_OR_RETURN(double setup_s, RepeatSetup(setup, r));
  r->Set("setup_s", setup_s, "s");
  r->Meta("workers", kScoreWorkers);
  r->Meta("kernel_threads", kScoreKernelThreads);
  r->Meta("generator_threads", 1);
  r->Meta("collector_threads", 1);
  r->Meta("features", kFeatures);
  r->Meta("lineage_cache_mb", static_cast<double>(kScoreCacheBytes) / 1e6);
  r->Meta("lo_rps", kLoRps);
  r->Meta("hi_rps", kHiRps);
  r->Meta("tail_percentile", kScoreTail);
  r->Meta("tail_limit_us", kTailLimitUs);

  RowSource rows(*model, args.seed + 11);
  const double t = args.seconds;
  uint64_t step_seed = args.seed * 7919 + 1;
  if (!args.trace) {
    // Shares of --seconds: direct execution and the closed loop, then lo,
    // hi, and the search for the highest rate that meets the limit. Direct
    // execution and the closed loop alternate in short slices, so each
    // samples the whole phase rather than one stretch of it.
    SYSDS_RETURN_IF_ERROR(ResetPeakRss());
    Tracer off(false);
    const CpuRotation cpus;
    std::vector<double> slice_p50, slice_p90, slice_rps;
    ClosedLoop total;
    size_t direct_samples = 0;
    for (const double end = NowS() + 0.55 * t; NowS() < end;) {
      cpus.Pin(slice_rps.size());
      const std::vector<double> direct_us =
          RunDirect(service, rows, kSliceSeconds, off, 0, &r->tally);
      cpus.Release();
      slice_p50.push_back(Percentile(direct_us, 0.5));
      slice_p90.push_back(Percentile(direct_us, kScoreTail));
      direct_samples += direct_us.size();
      const ClosedLoop c =
          RunClosedLoop(*service.svc, rows, kSliceSeconds, &r->tally);
      slice_rps.push_back(static_cast<double>(c.done) / c.wall_s);
      total.done += c.done;
      total.cpu_s += c.cpu_s;
    }
    // The peak resident set covers the phases with a fixed number of
    // requests in flight. In the open loop, the backlog a host stall
    // leaves (each queued request holds its input) would set it.
    SYSDS_ASSIGN_OR_RETURN(double peak_mb, PeakRssMb());
    r->Set("peak_rss_mb", peak_mb, "MB");
    RateStep at_lo = RunRate(*service.svc, rows, kLoRps, 0.15 * t, step_seed++,
                             &r->tally, nullptr, 0);
    RateStep at_hi = RunRate(*service.svc, rows, kHiRps, 0.15 * t, step_seed++,
                             &r->tally, nullptr, 0);
    // Bisect between the best of lo/hi that meets the limit and the
    // closed-loop capacity.
    constexpr int kSearchSteps = 3;
    double ok_rate = MeetsLimit(at_hi) ? kHiRps : MeetsLimit(at_lo) ? kLoRps : 0;
    const double capacity_rps = Median(slice_rps);
    double bad_rate = std::max(capacity_rps, kHiRps);
    for (int i = 0; i < kSearchSteps; ++i) {
      const double mid = 0.5 * (ok_rate + bad_rate);
      RateStep s = RunRate(*service.svc, rows, mid, 0.15 * t / kSearchSteps,
                           step_seed++, &r->tally, nullptr, 0);
      (MeetsLimit(s) ? ok_rate : bad_rate) = mid;
    }
    // Gated: in-process execution latency, and closed-loop capacity per
    // process CPU-second. Reported: the wall-clock capacity and the
    // open-loop latencies, which on the shared reference host vary
    // several-fold between runs of one commit. Capacity per CPU-second
    // does not drop when lock waits serialize the two workers, so the
    // gated metrics leave the service's concurrency unmeasured.
    r->Set("latency_s.p50", Median(slice_p50) * 1e-6, "s");
    r->Set("latency_s.tail", Median(slice_p90) * 1e-6, "s");
    r->Set("throughput_per_s",
           static_cast<double>(total.done) / total.cpu_s, "1/s");
    r->Meta("slices", static_cast<double>(slice_p50.size()));
    r->Meta("rotation_cpus", static_cast<double>(cpus.size()));
    r->Meta("direct_samples", static_cast<double>(direct_samples));
    r->Meta("capacity_rps", capacity_rps);
    MetaRate("lo", at_lo, r);
    MetaRate("hi", at_hi, r);
    r->Meta("max_rate_rps", ok_rate);
    r->Meta("search_steps", kSearchSteps);
    return Status::Ok();
  }

  SetLayerDefaults(r);
  RateStep plain = RunRate(*service.svc, rows, kLoRps, 0.2 * t, step_seed++,
                           &r->tally, nullptr, 0);
  // The traced service runs on a context with instruction statistics on.
  // The untraced one goes first: no more workers run at once, and only one
  // context is alive (see BatchEnv).
  service = Service{};
  SYSDS_ASSIGN_OR_RETURN(Service traced_service, MakeService(text, true));
  sysds::serve::ScoringService& svc = *traced_service.svc;
  const sysds::LineageCache* cache = traced_service.ctx->Cache();
  Tracer tracer(true);
  FillCache(traced_service, rows, &r->tally);

  CounterSnapshot before = Snapshot(cache);
  RateStep at_lo = RunRate(svc, rows, kLoRps, 0.2 * t, step_seed++,
                           &r->tally, &tracer, 0);
  const auto lo_ops = static_cast<int64_t>(at_lo.latency_us.size());
  CounterSnapshot counters = CounterDelta(before, Snapshot(cache));
  before = Snapshot(cache);
  RateStep at_hi = RunRate(svc, rows, kHiRps, 0.2 * t, step_seed++,
                           &r->tally, &tracer, lo_ops);
  Accumulate(&counters, CounterDelta(before, Snapshot(cache)));
  const auto ops = lo_ops + static_cast<int64_t>(at_hi.latency_us.size());
  SetCounterLayers(counters, ops, cache, r);
  r->Set("bench.generator_lag_us.p99", Percentile(at_hi.lag_us, 0.99), "us");
  r->Set("trace.overhead_frac",
         Percentile(at_lo.latency_us, 0.5) /
                 Percentile(plain.latency_us, 0.5) -
             1.0,
         "share");

  const double exec_p50 = Median(
      RunDirect(traced_service, rows, 0.1 * t, tracer, ops, &r->tally));
  r->Set("serve.exec_us.p50", exec_p50, "us");
  // Share of the mean request latency at hi not explained by execution.
  r->Set("serve.queue_share", std::max(0.0, 1.0 - exec_p50 / Mean(at_hi.latency_us)),
         "share");
  const double instr = r->metrics["controlprog.instructions"].value;
  r->Set("controlprog.exec_s", exec_p50 * 1e-6, "s");
  r->Set("controlprog.us_per_instruction", instr > 0 ? exec_p50 / instr : 0,
         "us");

  // Parse and compile of the scoring script (done once, at Prepare).
  std::vector<double> parse_ms, compile_ms;
  const auto infos = InfosOf(rows.Make(rows.Next()));
  for (int i = 0; i < 5; ++i) {
    double t0 = NowS();
    {
      ScopedSpan s(tracer, "lang.parse");
      SYSDS_RETURN_IF_ERROR(sysds::ParseDML(text).status());
    }
    parse_ms.push_back((NowS() - t0) * 1e3);
    t0 = NowS();
    ScopedSpan s(tracer, "compiler.compile");
    SYSDS_ASSIGN_OR_RETURN(
        std::unique_ptr<sysds::Program> program,
        sysds::CompileDML(text, traced_service.ctx->config(), infos));
    compile_ms.push_back((NowS() - t0) * 1e3);
    r->Set("dist.sp_planned", CountSubstr(program->Explain(), "sp_"),
           "count");
  }
  r->Set("lang.parse_ms", Median(parse_ms), "ms");
  r->Set("compiler.compile_ms", Median(compile_ms), "ms");

  SYSDS_ASSIGN_OR_RETURN(KernelNumbers k,
                         MeasureKernels(model->w, kScoreKernelThreads, tracer));
  SetKernelLayers(k, r);
  SYSDS_ASSIGN_OR_RETURN(
      IoNumbers io,
      MeasureIo(model->w, args.work_dir + "/io_probe.csv", tracer));
  r->tally.Record(true, false, io.round_trip_ok);
  r->Set("io.read_mb_s", io.read_mb_s, "MB/s");
  r->Set("io.write_mb_s", io.write_mb_s, "MB/s");
  SetSelfTimes(tracer, ops, r);
  MetaRate("lo", at_lo, r);
  MetaRate("hi", at_hi, r);
  r->Meta("traced_requests", static_cast<double>(ops));
  return WriteSpans(args, tracer);
}

}  // namespace
Status RunWorkload(const Args& args, Result* result) {
  result->Meta("workload", args.workload);
  result->Meta("seed", static_cast<double>(args.seed));
  result->Meta("seconds", args.seconds);
  result->Meta("traced", args.trace ? 1.0 : 0.0);
  result->Meta("nproc", std::thread::hardware_concurrency());
  std::string isa;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa += "sse4.2 ";
  if (__builtin_cpu_supports("avx")) isa += "avx ";
  if (__builtin_cpu_supports("avx2")) isa += "avx2 ";
  if (__builtin_cpu_supports("fma")) isa += "fma ";
  if (__builtin_cpu_supports("avx512f")) isa += "avx512f ";
  if (!isa.empty()) isa.pop_back();
  result->Meta("isa", isa);

  Status s = Fail("unknown workload '" + args.workload + "'");
  if (args.workload == "lm_sweep") s = RunLmSweep(args, result);
  if (args.workload == "lm_spill") s = RunLmSpill(args, result);
  if (args.workload == "lifecycle") s = RunLifecycle(args, result);
  if (args.workload == "scoring") s = RunScoring(args, result);
  SYSDS_RETURN_IF_ERROR(s);
  result->Meta("failed_frac", result->tally.FailedFrac());
  return Status::Ok();
}

}  // namespace perfbench
