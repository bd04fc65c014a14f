// Ablation A1 (§4.2 observation 2): dense GEMM kernel comparison — the
// portable dot-product-ordered kernel (the stand-in for SystemDS's Java
// matmult, which "does not compile packed SIMD instructions") vs. the
// cache-blocked vectorizer-friendly kernel (SysDS-B / native BLAS path).
// The paper reports the portable kernel ~2.1x slower; also covers tsmm,
// sparse-dense, and transpose micro-kernels.
//
// Kernel ledger: every benchmark runs a warm-up and 5 repetitions on wall
// time and reports mean, median, stddev and cv; the tsmm and tlmm rows add
// GFLOP/s, counted as 2*m*n*n for tsmm (as perfbench's matrix.tsmm_gflops
// does) and 2*m*n*l for tlmm. The JSON context names the tile-kernel ISA
// variant the runtime chose.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_matmult.h"
#include "runtime/matrix/lib_reorg.h"

namespace {

using namespace sysds;

MatrixBlock MakeDense(int64_t rows, int64_t cols, uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, 1.0, seed, RandPdf::kUniform, 1);
  return *m;
}

// Dense storage even when `zero_pct` percent of the cells are zero.
MatrixBlock MakeDenseWithZeros(int64_t rows, int64_t cols, int64_t zero_pct,
                               uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, 1.0 - zero_pct / 100.0, seed,
                      RandPdf::kUniform, 1);
  if (m->IsSparse()) m->ToDense();
  return *m;
}

// Warm-up, repetitions and wall-clock timing (the kernels are parallel).
void Ledger(benchmark::internal::Benchmark* b) {
  b->MinWarmUpTime(0.05)->Repetitions(5)->ReportAggregatesOnly(true);
  b->UseRealTime();
}

void SetGflops(benchmark::State& state, double flops) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

MatrixBlock MakeSparse(int64_t rows, int64_t cols, double sparsity,
                       uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, sparsity, seed,
                      RandPdf::kUniform, 1);
  return *m;
}

void BM_GemmPortable(benchmark::State& state) {
  int64_t n = state.range(0);
  MatrixBlock a = MakeDense(n, n, 1), b = MakeDense(n, n, 2);
  SetGemmKernel(GemmKernel::kPortable);
  for (auto _ : state) {
    auto c = MatMult(a, b, 1);
    benchmark::DoNotOptimize(c->DenseData());
  }
  SetGemmKernel(GemmKernel::kNative);
  SetGflops(state, 2.0 * n * n * n);
}
BENCHMARK(BM_GemmPortable)->Apply(Ledger)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNative(benchmark::State& state) {
  int64_t n = state.range(0);
  MatrixBlock a = MakeDense(n, n, 1), b = MakeDense(n, n, 2);
  SetGemmKernel(GemmKernel::kNative);
  for (auto _ : state) {
    auto c = MatMult(a, b, 1);
    benchmark::DoNotOptimize(c->DenseData());
  }
  SetGflops(state, 2.0 * n * n * n);
}
BENCHMARK(BM_GemmNative)->Apply(Ledger)->Arg(128)->Arg(256)->Arg(512);

void BM_TsmmDense(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 128;
  MatrixBlock x = MakeDense(rows, cols, 3);
  for (auto _ : state) {
    auto c = TransposeSelfMatMult(x, true, DefaultParallelism());
    benchmark::DoNotOptimize(c->DenseData());
  }
  SetGflops(state, 2.0 * rows * cols * cols);
}
BENCHMARK(BM_TsmmDense)->Apply(Ledger)->Arg(2048)->Arg(8192);

// t(X) %*% X on dense X (rows, cols, percent zeros): the lm_sweep and
// lm_spill shapes, a narrow one, a lifecycle-sized one and a half-zero one.
void BM_TsmmDenseShape(benchmark::State& state) {
  int64_t rows = state.range(0), cols = state.range(1);
  MatrixBlock x = MakeDenseWithZeros(rows, cols, state.range(2), 3);
  for (auto _ : state) {
    auto c = TransposeSelfMatMult(x, true, DefaultParallelism());
    benchmark::DoNotOptimize(c->DenseData());
  }
  SetGflops(state, 2.0 * rows * cols * cols);
}
BENCHMARK(BM_TsmmDenseShape)
    ->Apply(Ledger)
    ->ArgNames({"rows", "cols", "zero_pct"})
    ->Args({20000, 200, 0})
    ->Args({25000, 200, 0})
    ->Args({100000, 10, 0})
    ->Args({2000, 11, 0})
    ->Args({20000, 200, 50});

// t(A) %*% B on dense inputs (rows, A cols, B cols); l = 1 is lmDS's
// t(X) %*% y.
void BM_TlmmDense(benchmark::State& state) {
  int64_t rows = state.range(0), n = state.range(1), l = state.range(2);
  MatrixBlock a = MakeDense(rows, n, 4), b = MakeDense(rows, l, 5);
  for (auto _ : state) {
    auto c = TransposeLeftMatMult(a, b, DefaultParallelism());
    benchmark::DoNotOptimize(c->DenseData());
  }
  SetGflops(state, 2.0 * rows * n * l);
}
BENCHMARK(BM_TlmmDense)
    ->Apply(Ledger)
    ->ArgNames({"rows", "n", "l"})
    ->Args({20000, 200, 1})
    ->Args({20000, 200, 32});

// Dense tsmm at the lm_sweep shape through each tile-kernel ISA variant
// this CPU supports (registered in main).
void BM_TsmmTileVariant(benchmark::State& state,
                        const internal::TileKernelVariant* variant) {
  MatrixBlock x = MakeDense(20000, 200, 3);
  for (auto _ : state) {
    MatrixBlock c = internal::DenseTransposeLeft(x, x, true, *variant,
                                                 DefaultParallelism());
    benchmark::DoNotOptimize(c.DenseData());
  }
  SetGflops(state, 2.0 * 20000 * 200 * 200);
}

void BM_TsmmSparse(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 128;
  MatrixBlock x = MakeSparse(rows, cols, 0.1, 3);
  for (auto _ : state) {
    auto c = TransposeSelfMatMult(x, true, DefaultParallelism());
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_TsmmSparse)->Apply(Ledger)->Arg(2048)->Arg(8192);

// The unfused alternative to tsmm: materialized transpose + matmult — the
// cost TF pays on sparse data (§4.2 observation 3).
void BM_TransposeThenMatMult(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 128;
  MatrixBlock x = MakeSparse(rows, cols, 0.1, 3);
  for (auto _ : state) {
    MatrixBlock xt = Transpose(x, 1);
    auto c = MatMult(xt, x, DefaultParallelism());
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_TransposeThenMatMult)->Apply(Ledger)->Arg(2048)->Arg(8192);

void BM_SparseDenseMatVec(benchmark::State& state) {
  int64_t rows = state.range(0), cols = 512;
  MatrixBlock x = MakeSparse(rows, cols, 0.05, 4);
  MatrixBlock v = MakeDense(cols, 1, 5);
  for (auto _ : state) {
    auto c = MatMult(x, v, 1);
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_SparseDenseMatVec)->Apply(Ledger)->Arg(8192)->Arg(32768);

void BM_TransposeDense(benchmark::State& state) {
  int64_t n = state.range(0);
  MatrixBlock x = MakeDense(n, n, 6);
  for (auto _ : state) {
    MatrixBlock xt = Transpose(x, DefaultParallelism());
    benchmark::DoNotOptimize(xt.DenseData());
  }
}
BENCHMARK(BM_TransposeDense)->Apply(Ledger)->Arg(512)->Arg(1024);

}  // namespace

// Standard google-benchmark main plus a default JSON sink: results land in
// BENCH_kernels.json (cwd) unless --benchmark_out= overrides it.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args = sysds_bench::WithDefaultJsonOut(
      argc, argv, "BENCH_kernels.json", &storage);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  for (const internal::TileKernelVariant& v : internal::TileKernelVariants()) {
    if (!v.supported()) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_TsmmTileVariant/") + v.name).c_str(),
        BM_TsmmTileVariant, &v)
        ->Apply(Ledger);
  }
  benchmark::AddCustomContext("tile_kernel",
                              internal::ActiveTileKernel().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
