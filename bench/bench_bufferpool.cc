// Buffer-pool benchmark: the async memory manager vs its synchronous
// baseline. Covers (1) eviction stall — cumulative caller-blocking spill
// time for an over-limit allocation storm, write-behind on vs off; (2) 2Q
// scan resistance (demand restores of the hot working set after a
// one-touch scan). Results land in BENCH_bufferpool.json. The free-drop
// and scan assertions arm at every scale (they measure where work happens,
// not wall-clock scaling); the stall-reduction assertion arms from the
// small scale up.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/util.h"
#include "obs/metrics.h"
#include "runtime/bufferpool/buffer_pool.h"
#include "runtime/controlprog/data.h"

using namespace sysds;

namespace {

double StallSeconds() {
  return static_cast<double>(obs::MetricsRegistry::Get()
                                 .GetHistogram("bufferpool.evict_stall_ns")
                                 ->Sum()) /
         1e9;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().CounterValue(name);
}

int64_t RestoreCount() {
  return obs::MetricsRegistry::Get()
      .GetHistogram("bufferpool.restore_ns")
      ->Count();
}

struct StormResult {
  double wall_s = 0;
  double stall_s = 0;
  int64_t free_drops = 0;
};

/// Allocation storm: `nobjs` blocks of dim x dim doubles stream through a
/// pool that holds only `limit_objs` of them, with per-block compute (a
/// full-block sum via AcquireRead, roughly the cost of the spill write)
/// between allocations — the window a background writer hides writes in.
StormResult RunStorm(int64_t dim, int nobjs, int limit_objs,
                     bool write_behind) {
  BufferPool::Options opt;
  opt.limit_bytes = limit_objs * dim * dim * 8;
  opt.write_behind = write_behind;
  BufferPool pool(opt);
  MatrixObject::SetBufferPool(&pool);

  StormResult r;
  double stall_before = StallSeconds();
  int64_t drops_before = CounterValue("bufferpool.free_drops");
  Timer t;
  std::vector<std::shared_ptr<MatrixObject>> objs;
  objs.reserve(static_cast<size_t>(nobjs));
  double sink = 0;
  for (int i = 0; i < nobjs; ++i) {
    objs.push_back(std::make_shared<MatrixObject>(
        MatrixBlock::Dense(dim, dim, static_cast<double>(i))));
    auto read = objs.back()->AcquireRead();
    if (read.ok()) {
      // ~4 flop-passes over the block — a compute-bound instruction mix
      // where spill writes fit in the window even on few cores.
      for (int pass = 0; pass < 4; ++pass) {
        for (int64_t row = 0; row < dim; ++row) {
          for (int64_t c = 0; c < dim; ++c) sink += (*read)->Get(row, c);
        }
      }
      objs.back()->Release();
    }
  }
  pool.Drain();
  r.wall_s = t.ElapsedSeconds();
  r.stall_s = StallSeconds() - stall_before;
  r.free_drops = CounterValue("bufferpool.free_drops") - drops_before;
  if (sink == 12345.6789) std::printf("%f\n", sink);  // keep the compute
  MatrixObject::SetBufferPool(nullptr);
  return r;
}

/// Scan workload for the eviction policy: a re-referenced hot block, then a
/// one-touch scan of 2x the pool, then the hot block is demanded again.
/// Returns the number of demand disk restores that re-access costs.
int64_t RunScan(int64_t dim) {
  BufferPool pool(5 * dim * dim * 8);
  MatrixObject::SetBufferPool(&pool);
  auto hot = std::make_shared<MatrixObject>(MatrixBlock::Dense(dim, dim, 1.0));
  for (int i = 0; i < 3; ++i) {
    auto r = hot->AcquireRead();
    if (r.ok()) hot->Release();
  }
  std::vector<std::shared_ptr<MatrixObject>> scan;
  for (int i = 0; i < 10; ++i) {
    scan.push_back(
        std::make_shared<MatrixObject>(MatrixBlock::Dense(dim, dim, 2.0)));
  }
  pool.Drain();
  int64_t restores_before = RestoreCount();
  auto r = hot->AcquireRead();
  if (r.ok()) hot->Release();
  int64_t restores = RestoreCount() - restores_before;
  MatrixObject::SetBufferPool(nullptr);
  return restores;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sysds_bench;
  ApplySmokeFlag(argc, argv);
  Scale scale = GetScale();
  JsonResultWriter out("BENCH_bufferpool.json");
  bool failed = false;

  // Block edge and counts per scale: tiny stays in the milliseconds, paper
  // streams ~128MB through a 16MB pool.
  const int64_t dim = scale.rows >= 100000 ? 512 : (scale.rows >= 8000 ? 128 : 64);
  const int nobjs = scale.rows >= 100000 ? 64 : (scale.rows >= 8000 ? 48 : 16);
  const int limit_objs = scale.rows >= 100000 ? 8 : 4;
  const int reps = std::max(1, scale.repetitions);

  // ------------------------------------------------------------------
  // (1) Eviction stall: write-behind moves spill writes off the allocating
  // thread, so cumulative caller-blocking time must collapse.
  StormResult sync_r, async_r;
  sync_r.stall_s = sync_r.wall_s = 1e30;
  async_r.stall_s = async_r.wall_s = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    StormResult s = RunStorm(dim, nobjs, limit_objs, /*write_behind=*/false);
    StormResult a = RunStorm(dim, nobjs, limit_objs, /*write_behind=*/true);
    if (s.stall_s < sync_r.stall_s) sync_r = s;
    if (a.stall_s < async_r.stall_s) async_r = a;
  }
  double stall_reduction =
      sync_r.stall_s / std::max(async_r.stall_s, 1e-9);
  std::printf("# bufferpool: %d x %lldx%lld blocks through a %d-block pool\n",
              nobjs, (long long)dim, (long long)dim, limit_objs);
  std::printf("%-24s%14s%14s%14s\n", "mode", "stall_s", "wall_s", "freedrops");
  std::printf("%-24s%14.5f%14.5f%14lld\n", "sync eviction", sync_r.stall_s,
              sync_r.wall_s, (long long)sync_r.free_drops);
  std::printf("%-24s%14.5f%14.5f%14lld\n", "write-behind", async_r.stall_s,
              async_r.wall_s, (long long)async_r.free_drops);
  std::printf("eviction stall reduction: %.2fx\n", stall_reduction);
  out.Add("eviction_stall", {{"sync_stall_s", sync_r.stall_s},
                             {"async_stall_s", async_r.stall_s},
                             {"reduction", stall_reduction},
                             {"sync_wall_s", sync_r.wall_s},
                             {"async_wall_s", async_r.wall_s},
                             {"async_free_drops",
                              static_cast<double>(async_r.free_drops)}});
  // At tiny (smoke) scale the 32KB writes are on par with per-pass fixed
  // overheads and the ratio is noise; the claim is asserted at real scales.
  if (scale.rows >= 8000 && stall_reduction < 2.0) {
    std::fprintf(stderr, "FAIL: eviction stall only %.2fx reduced (< 2x)\n",
                 stall_reduction);
    failed = true;
  }
  if (async_r.free_drops <= 0) {
    std::fprintf(stderr, "FAIL: write-behind produced no free drops\n");
    failed = true;
  }

  // ------------------------------------------------------------------
  // (2) Scan resistance: after a one-touch scan 2x the pool, re-accessing
  // the re-referenced hot block must be free — it sits in the protected
  // queue, which the scan cycles past.
  {
    int64_t restores_2q = RunScan(dim);
    std::printf("\n# bufferpool: hot-block demand restores after scan\n");
    std::printf("%-24s%14lld\n", "2Q", (long long)restores_2q);
    out.Add("scan_resistance",
            {{"restores_2q", static_cast<double>(restores_2q)}});
    if (restores_2q != 0) {
      std::fprintf(stderr,
                   "FAIL: scan evicted the protected hot block (%lld "
                   "restores)\n",
                   (long long)restores_2q);
      failed = true;
    }
  }

  if (!out.Write()) {
    std::fprintf(stderr, "failed to write BENCH_bufferpool.json\n");
    return 1;
  }
  return failed ? 1 : 0;
}
