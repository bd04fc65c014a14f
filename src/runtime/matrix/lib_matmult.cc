#include "runtime/matrix/lib_matmult.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"

namespace sysds {

namespace {
std::atomic<GemmKernel> g_gemm_kernel{GemmKernel::kNative};

inline bool AllFinite(const double* v, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return true;
}
}  // namespace

void SetGemmKernel(GemmKernel kernel) { g_gemm_kernel.store(kernel); }
GemmKernel GetGemmKernel() { return g_gemm_kernel.load(); }

namespace internal {

// Straightforward i-j-k (dot product) loop nest: strided accesses into B and
// no register blocking — stands in for the portable Java kernel of §4.2.
void GemmDensePortable(const double* a, const double* b, double* c,
                       int64_t m, int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (int64_t l = 0; l < k; ++l) sum += arow[l] * b[l * n + j];
      crow[j] = sum;
    }
  }
}

// Cache-blocked i-k-j kernel with a contiguous inner loop over C/B rows —
// the auto-vectorizer emits packed SIMD for the inner axpy, standing in for
// the native BLAS path (SysDS-B).
void GemmDenseTiled(const double* a, const double* b, double* c, int64_t m,
                    int64_t n, int64_t k) {
  constexpr int64_t kBlockK = 128;
  constexpr int64_t kBlockJ = 512;
  // Unified zero-skip rule (same as the fused and compressed kernels): a
  // zero in A may skip B's row l only when that row is finite everywhere,
  // so 0 * Inf and 0 * NaN still propagate NaN into C exactly like the
  // non-skipping GemmDensePortable. Row states are memoized lazily — a
  // zero-free A never pays for the scan.
  std::vector<int8_t> b_row_finite;  // -1 unknown, 0 has nonfinite, 1 finite
  auto b_row_all_finite = [&](int64_t l) {
    if (b_row_finite.empty()) b_row_finite.assign(static_cast<size_t>(k), -1);
    int8_t st = b_row_finite[static_cast<size_t>(l)];
    if (st < 0) {
      st = AllFinite(b + l * n, n) ? 1 : 0;
      b_row_finite[static_cast<size_t>(l)] = st;
    }
    return st == 1;
  };
  for (int64_t kk = 0; kk < k; kk += kBlockK) {
    int64_t kend = std::min(k, kk + kBlockK);
    for (int64_t jj = 0; jj < n; jj += kBlockJ) {
      int64_t jend = std::min(n, jj + kBlockJ);
      for (int64_t i = 0; i < m; ++i) {
        const double* arow = a + i * k;
        double* crow = c + i * n;
        for (int64_t l = kk; l < kend; ++l) {
          double aval = arow[l];
          if (aval == 0.0 && b_row_all_finite(l)) continue;
          const double* brow = b + l * n;
          for (int64_t j = jj; j < jend; ++j) crow[j] += aval * brow[j];
        }
      }
    }
  }
}

struct TileBlock {
  const double* a;  // first shared row of A; row stride n
  const double* b;  // first shared row of B; row stride l
  int64_t rows, n, l;
  double* c;   // n x l accumulator, row-major
  bool upper;  // symmetric result: only tiles reaching the upper triangle
};

}  // namespace internal

namespace {

void GemmDenseRows(const MatrixBlock& a, const MatrixBlock& b, MatrixBlock* c,
                   int64_t rbeg, int64_t rend) {
  int64_t n = b.Cols(), k = a.Cols();
  const double* pa = a.DenseData() + rbeg * k;
  double* pc = c->DenseData() + rbeg * n;
  if (GetGemmKernel() == GemmKernel::kNative) {
    internal::GemmDenseTiled(pa, b.DenseData(), pc, rend - rbeg, n, k);
  } else {
    internal::GemmDensePortable(pa, b.DenseData(), pc, rend - rbeg, n, k);
  }
}

// C rows [rbeg,rend): sparse A times dense B.
void GemmSparseDenseRows(const MatrixBlock& a, const MatrixBlock& b,
                         MatrixBlock* c, int64_t rbeg, int64_t rend) {
  int64_t n = b.Cols();
  for (int64_t i = rbeg; i < rend; ++i) {
    const SparseRow& row = a.SparseData().Row(i);
    double* crow = c->DenseRow(i);
    for (int64_t p = 0; p < row.Size(); ++p) {
      double aval = row.Values()[p];
      const double* brow = b.DenseRow(row.Indexes()[p]);
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void GemmDenseSparseRows(const MatrixBlock& a, const MatrixBlock& b,
                         MatrixBlock* c, int64_t rbeg, int64_t rend) {
  int64_t k = a.Cols();
  for (int64_t i = rbeg; i < rend; ++i) {
    const double* arow = a.DenseRow(i);
    double* crow = c->DenseRow(i);
    for (int64_t l = 0; l < k; ++l) {
      double aval = arow[l];
      if (aval == 0.0) continue;
      const SparseRow& brow = b.SparseData().Row(l);
      for (int64_t p = 0; p < brow.Size(); ++p) {
        crow[brow.Indexes()[p]] += aval * brow.Values()[p];
      }
    }
  }
}

void GemmSparseSparseRows(const MatrixBlock& a, const MatrixBlock& b,
                          MatrixBlock* c, int64_t rbeg, int64_t rend) {
  for (int64_t i = rbeg; i < rend; ++i) {
    const SparseRow& arow = a.SparseData().Row(i);
    double* crow = c->DenseRow(i);
    for (int64_t p = 0; p < arow.Size(); ++p) {
      double aval = arow.Values()[p];
      const SparseRow& brow = b.SparseData().Row(arow.Indexes()[p]);
      for (int64_t q = 0; q < brow.Size(); ++q) {
        crow[brow.Indexes()[q]] += aval * brow.Values()[q];
      }
    }
  }
}

// Mirrors the computed upper triangle of an n x n dense symmetric result
// into the lower triangle, row-parallel (each row i writes only its own
// cells [0, i) and reads completed upper-triangle cells).
void MirrorLowerTriangle(double* pc, int64_t n, int num_threads) {
  ThreadPool::Global().ParallelFor(
      0, n, PickChunks(n, num_threads), [&](int64_t rb, int64_t re) {
        for (int64_t i = rb; i < re; ++i) {
          for (int64_t j = 0; j < i; ++j) pc[i * n + j] = pc[j * n + i];
        }
      });
}

// Deterministic pairwise tree reduction over chunk-id-indexed partials:
// level `stride` adds partials[i + stride] into partials[i] for
// i = 0, 2*stride, 4*stride, ... — pairs touch disjoint slots, so the
// levels run chunk-parallel while the addition order stays a pure function
// of the chunk ids: the reduced result is bit-identical across thread
// counts, scheduling orders, and repeated runs. Empty slots (chunks that
// never ran, possible when the geometry leaves a tail chunk empty) are
// skipped or moved, which is itself determined by the geometry alone.
void TreeReducePartials(std::vector<std::vector<double>>* partials,
                        int64_t len) {
  auto& parts = *partials;
  int64_t count = static_cast<int64_t>(parts.size());
  for (int64_t stride = 1; stride < count; stride *= 2) {
    int64_t pairs = (count - stride + 2 * stride - 1) / (2 * stride);
    ThreadPool::Global().ParallelFor(
        0, pairs, pairs,
        [&](int64_t pb, int64_t pe) {
          for (int64_t t = pb; t < pe; ++t) {
            int64_t i = t * 2 * stride;
            int64_t j = i + stride;
            if (j >= count) continue;
            std::vector<double>& dst = parts[static_cast<size_t>(i)];
            std::vector<double>& src = parts[static_cast<size_t>(j)];
            if (src.empty()) continue;
            if (dst.empty()) {
              dst = std::move(src);
            } else {
              for (int64_t x = 0; x < len; ++x) dst[x] += src[x];
            }
            std::vector<double>().swap(src);
          }
        },
        "matmult.reduce");
  }
}

// Tree-reduces per-chunk n x l partials into the n x l result, mirroring
// the upper triangle of a symmetric (n == l) result into the lower one.
MatrixBlock ReducedResult(std::vector<std::vector<double>>* partials,
                          int64_t n, int64_t l, bool mirror, int num_threads) {
  TreeReducePartials(partials, n * l);
  MatrixBlock c = MatrixBlock::Dense(n, l);
  double* pc = c.DenseData();
  if (!partials->empty() && !(*partials)[0].empty()) {
    std::memcpy(pc, (*partials)[0].data(),
                static_cast<size_t>(n * l) * sizeof(double));
  }
  if (mirror) MirrorLowerTriangle(pc, n, num_threads);
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

// ---------------------------------------------------------------------------
// Dense t(A) %*% B tile kernel.
//
// One register-blocked kernel computes an MR x (NV*VL) tile of t(A) %*% B
// over a block of shared rows: per row it loads NV vectors of B's row,
// broadcasts MR elements of A's row and issues MR*NV multiply-adds into
// accumulators that stay in registers for the whole row block; the tile is
// added into C once at the end. Every element is multiplied, so 0 * Inf
// gives NaN exactly as in the portable kernel.
//
// One template source, compiled per ISA: the wrappers below instantiate it
// under __attribute__((target(...))), where GCC's vector extensions lower
// to zmm, ymm or xmm code and the multiply-add contracts to an FMA if the
// target has one. The variant is picked once, on first use.
//
// B's last vector may read up to VL-1 doubles past column l. Inside the
// matrix those are the next row's first values and only feed lanes that are
// never stored; the last rows, whose reads would run off the end of B's
// storage, run on a zero-padded copy instead.

using internal::TileBlock;

// A struct member, not an alias template: GCC drops vector_size from a
// dependent alias.
template <int VL>
struct TileVec {
  typedef double type __attribute__((vector_size(VL * sizeof(double))));
};

template <int VL, int MR, int NV>
[[gnu::always_inline]] inline void TileKernel(const TileBlock& t, int64_t p0,
                                              int64_t q0) {
  using V = typename TileVec<VL>::type;
  V acc[MR][NV] = {};
  const double* pa = t.a + p0;
  const double* pb = t.b + q0;
  for (int64_t i = 0; i < t.rows; ++i, pa += t.n, pb += t.l) {
    V bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], pb + v * VL, sizeof(V));
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const double ar = pa[r];
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] += ar * bv[v];
    }
  }
  const int64_t cols = std::min<int64_t>(NV * VL, t.l - q0);
  for (int r = 0; r < MR; ++r) {
    double* crow = t.c + (p0 + r) * t.l + q0;
    if (cols == NV * VL) {
      for (int v = 0; v < NV; ++v) {
        V cv;
        std::memcpy(&cv, crow + v * VL, sizeof(V));
        cv += acc[r][v];
        std::memcpy(crow + v * VL, &cv, sizeof(V));
      }
    } else {
      for (int64_t j = 0; j < cols; ++j) crow[j] += acc[r][j / VL][j % VL];
    }
  }
}

// Edge tiles: the kernel instantiated for exactly `mr` rows and `nv` vectors,
// each instantiation reached by one path.
template <int VL, int MR, int NV>
[[gnu::always_inline]] inline void TileRows(const TileBlock& t, int64_t p0,
                                            int64_t q0, int mr) {
  if constexpr (MR > 1) {
    if (mr < MR) return TileRows<VL, MR - 1, NV>(t, p0, q0, mr);
  }
  TileKernel<VL, MR, NV>(t, p0, q0);
}

template <int VL, int MR, int NV>
[[gnu::always_inline]] inline void Tile(const TileBlock& t, int64_t p0,
                                        int64_t q0, int mr, int nv) {
  if constexpr (NV > 1) {
    if (nv < NV) return Tile<VL, MR, NV - 1>(t, p0, q0, mr, nv);
  }
  TileRows<VL, MR, NV>(t, p0, q0, mr);
}

// All tiles of one row block, C += t(A[rows]) %*% B[rows].
template <int VL, int MR, int NV>
[[gnu::always_inline]] inline void TilePanel(const TileBlock& t) {
  constexpr int64_t kNR = VL * NV;
  for (int64_t p0 = 0; p0 < t.n; p0 += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, t.n - p0));
    // First tile holding a column >= p0 (a symmetric result needs no more).
    const int64_t q_first = t.upper ? p0 / kNR * kNR : 0;
    for (int64_t q0 = q_first; q0 < t.l; q0 += kNR) {
      const int64_t cols = std::min<int64_t>(kNR, t.l - q0);
      Tile<VL, MR, NV>(t, p0, q0, mr, static_cast<int>((cols + VL - 1) / VL));
    }
  }
}

#if defined(__x86_64__)
// 16 zmm accumulators of 32 registers.
__attribute__((target("avx512f"))) void TilePanelAvx512(const TileBlock& t) {
  TilePanel<8, 8, 2>(t);
}

// 12 ymm accumulators of 16 registers.
__attribute__((target("avx2,fma"))) void TilePanelAvx2(const TileBlock& t) {
  TilePanel<4, 6, 2>(t);
}
#endif

// 8 xmm accumulators of 16 registers; SSE2 has no FMA.
void TilePanelBaseline(const TileBlock& t) { TilePanel<2, 4, 2>(t); }

// Rows per kernel call: a row block of A and B stays cache-resident while
// every tile sweeps it.
constexpr int64_t kTileBlockBytes = int64_t{256} << 10;

}  // namespace

namespace internal {

const std::vector<TileKernelVariant>& TileKernelVariants() {
  static const std::vector<TileKernelVariant> variants = {
#if defined(__x86_64__)
      {"avx512", 8, [] { return __builtin_cpu_supports("avx512f") != 0; },
       TilePanelAvx512},
      {"avx2", 4,
       [] {
         return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
       },
       TilePanelAvx2},
#endif
      {"baseline", 2, [] { return true; }, TilePanelBaseline},
  };
  return variants;
}

const TileKernelVariant& ActiveTileKernel() {
  static const TileKernelVariant* const active = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
#endif
    for (const TileKernelVariant& v : TileKernelVariants()) {
      if (v.supported()) return &v;
    }
    return &TileKernelVariants().back();
  }();
  return *active;
}

MatrixBlock DenseTransposeLeft(const MatrixBlock& a, const MatrixBlock& b,
                               bool symmetric, const TileKernelVariant& kernel,
                               int num_threads) {
  const int64_t m = a.Rows(), n = a.Cols(), l = b.Cols();
  if (n == 0 || l == 0) return MatrixBlock::Dense(n, l);
  const int64_t chunks = PickChunksBounded(m, n * l * 8);
  const int64_t chunk_rows = (m + chunks - 1) / chunks;
  const int64_t block_rows =
      std::max<int64_t>(1, kTileBlockBytes / ((n + l) * 8));
  // Rows from `padded_from` on would read past the end of B's storage.
  const int64_t read_len = (l + kernel.lanes - 1) / kernel.lanes * kernel.lanes;
  const int64_t padded_from =
      m * l >= read_len ? (m * l - read_len) / l + 1 : 0;
  std::vector<std::vector<double>> partials(static_cast<size_t>(chunks));
  ThreadPool::Global().ParallelFor(
      0, m, chunks,
      [&](int64_t rb, int64_t re) {
        std::vector<double>& acc =
            partials[static_cast<size_t>(rb / chunk_rows)];
        acc.assign(static_cast<size_t>(n * l), 0.0);
        auto run = [&](int64_t r0, int64_t r1, const double* pb) {
          for (int64_t i = r0; i < r1; i += block_rows) {
            const int64_t rows = std::min(block_rows, r1 - i);
            kernel.panel({a.DenseRow(i), pb + (i - r0) * l, rows, n, l,
                          acc.data(), symmetric});
          }
        };
        const int64_t direct_end = std::max(rb, std::min(re, padded_from));
        run(rb, direct_end, b.DenseData() + rb * l);
        if (direct_end < re) {
          std::vector<double> tail(
              static_cast<size_t>((re - direct_end) * l + kernel.lanes), 0.0);
          std::memcpy(tail.data(), b.DenseRow(direct_end),
                      static_cast<size_t>((re - direct_end) * l) *
                          sizeof(double));
          run(direct_end, re, tail.data());
        }
      },
      symmetric ? "tsmm" : "tlmm");
  return ReducedResult(&partials, n, l, /*mirror=*/symmetric, num_threads);
}

}  // namespace internal

StatusOr<MatrixBlock> MatMult(const MatrixBlock& a, const MatrixBlock& b,
                              int num_threads) {
  if (a.Cols() != b.Rows()) {
    return InvalidArgument("matmult dimension mismatch: " +
                           std::to_string(a.Cols()) + " vs " +
                           std::to_string(b.Rows()));
  }
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), b.Cols());
  int64_t chunks = PickChunks(a.Rows(), num_threads);
  auto run = [&](auto fn) {
    ThreadPool::Global().ParallelFor(
        0, a.Rows(), chunks,
        [&](int64_t rb, int64_t re) { fn(a, b, &c, rb, re); }, "matmult");
  };
  // Sparse-A paths split on cumulative row nnz instead of row count so a
  // few dense rows cannot straggle one chunk; output rows stay disjoint, so
  // the weighted boundaries (a pure function of the nnz structure) keep
  // results bit-identical at any thread count.
  auto run_weighted = [&](auto fn) {
    ThreadPool::Global().ParallelForWeighted(
        0, a.Rows(), chunks,
        [&](int64_t i) { return a.SparseData().Row(i).Size() + 1; },
        [&](int64_t rb, int64_t re, int64_t) { fn(a, b, &c, rb, re); },
        "matmult");
  };
  if (!a.IsSparse() && !b.IsSparse()) {
    run(GemmDenseRows);
  } else if (a.IsSparse() && !b.IsSparse()) {
    run_weighted(GemmSparseDenseRows);
  } else if (!a.IsSparse() && b.IsSparse()) {
    run(GemmDenseSparseRows);
  } else {
    run_weighted(GemmSparseSparseRows);
  }
  c.MarkNnzDirty();
  c.ExamSparsity();
  return c;
}

StatusOr<MatrixBlock> TransposeSelfMatMult(const MatrixBlock& x, bool left,
                                           int num_threads) {
  // Right tsmm X%*%t(X) is computed as left tsmm of the transpose-free form
  // by swapping the roles of rows and cells; for simplicity we only
  // specialize the (dominant) left case and fall back to TransposeLeftMatMult
  // semantics for the right case via the generic path.
  if (!left) {
    // X %*% t(X): C[i,j] = dot(row_i, row_j), symmetric m x m. Row i costs
    // ~(m - i) dot products — triangular skew — so chunks split on that
    // weight rather than on the row count.
    int64_t m = x.Rows(), k = x.Cols();
    MatrixBlock c = MatrixBlock::Dense(m, m);
    ThreadPool::Global().ParallelForWeighted(
        0, m, PickChunks(m, num_threads), [m](int64_t i) { return m - i; },
        [&](int64_t rb, int64_t re, int64_t) {
          for (int64_t i = rb; i < re; ++i) {
            for (int64_t j = i; j < m; ++j) {
              double sum = 0.0;
              if (!x.IsSparse()) {
                const double* ri = x.DenseRow(i);
                const double* rj = x.DenseRow(j);
                for (int64_t l = 0; l < k; ++l) sum += ri[l] * rj[l];
              } else {
                const SparseRow& ri = x.SparseData().Row(i);
                const SparseRow& rj = x.SparseData().Row(j);
                int64_t p = 0, q = 0;
                while (p < ri.Size() && q < rj.Size()) {
                  int64_t ci = ri.Indexes()[p], cj = rj.Indexes()[q];
                  if (ci == cj) sum += ri.Values()[p++] * rj.Values()[q++];
                  else if (ci < cj) ++p;
                  else ++q;
                }
              }
              c.DenseRow(i)[j] = sum;
            }
          }
        },
        "tsmm");
    // Mirror the upper triangle.
    MirrorLowerTriangle(c.DenseData(), m, num_threads);
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }

  // Left tsmm: C = t(X) %*% X, n x n symmetric.
  // Portable kernel (§4.2: the non-SIMD Java-style path): per output cell
  // dot products over column-strided accesses — cache-unfriendly like the
  // unblocked reference implementation. Column p costs ~(n - p) cells.
  if (!x.IsSparse() && GetGemmKernel() == GemmKernel::kPortable) {
    int64_t m = x.Rows(), n = x.Cols();
    MatrixBlock c = MatrixBlock::Dense(n, n);
    const double* px = x.DenseData();
    double* pc = c.DenseData();
    ThreadPool::Global().ParallelForWeighted(
        0, n, PickChunks(n, num_threads), [n](int64_t p) { return n - p; },
        [&](int64_t pb, int64_t pe, int64_t) {
          for (int64_t p = pb; p < pe; ++p) {
            for (int64_t q = p; q < n; ++q) {
              double sum = 0.0;
              for (int64_t i = 0; i < m; ++i) {
                sum += px[i * n + p] * px[i * n + q];
              }
              pc[p * n + q] = sum;
            }
          }
        },
        "tsmm");
    MirrorLowerTriangle(pc, n, num_threads);
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }

  if (!x.IsSparse()) {
    return internal::DenseTransposeLeft(x, x, /*symmetric=*/true,
                                        internal::ActiveTileKernel(),
                                        num_threads);
  }

  // Sparse kernel: accumulated over rows with per-chunk partial results
  // reduced deterministically by chunk id. The chunk count is bounded by
  // the n*n scratch each chunk holds.
  int64_t m = x.Rows(), n = x.Cols();
  int64_t chunks = PickChunksBounded(m, n * n * 8);
  std::vector<std::vector<double>> partials(static_cast<size_t>(chunks));
  ThreadPool::Global().ParallelForWeighted(
      0, m, chunks, [&](int64_t i) { return x.SparseData().Row(i).Size() + 1; },
      [&](int64_t rb, int64_t re, int64_t ci) {
        std::vector<double>& acc = partials[static_cast<size_t>(ci)];
        acc.assign(static_cast<size_t>(n * n), 0.0);
        for (int64_t i = rb; i < re; ++i) {
          const SparseRow& row = x.SparseData().Row(i);
          for (int64_t p = 0; p < row.Size(); ++p) {
            double v = row.Values()[p];
            double* arow = acc.data() + row.Indexes()[p] * n;
            for (int64_t q = p; q < row.Size(); ++q) {
              arow[row.Indexes()[q]] += v * row.Values()[q];
            }
          }
        }
      },
      "tsmm");
  return ReducedResult(&partials, n, n, /*mirror=*/true, num_threads);
}

StatusOr<MatrixBlock> TransposeLeftMatMult(const MatrixBlock& a,
                                           const MatrixBlock& b,
                                           int num_threads) {
  if (a.Rows() != b.Rows()) {
    return InvalidArgument("t(A)%*%B dimension mismatch: " +
                           std::to_string(a.Rows()) + " vs " +
                           std::to_string(b.Rows()));
  }
  // Portable kernel: per-cell dot products over column-strided accesses.
  if (!a.IsSparse() && !b.IsSparse() &&
      GetGemmKernel() == GemmKernel::kPortable) {
    int64_t m = a.Rows(), n = a.Cols(), l = b.Cols();
    MatrixBlock c = MatrixBlock::Dense(n, l);
    const double* pa = a.DenseData();
    const double* pb = b.DenseData();
    double* pc = c.DenseData();
    ThreadPool::Global().ParallelFor(
        0, n, PickChunks(n, num_threads),
        [&](int64_t qb, int64_t qe) {
          for (int64_t p = qb; p < qe; ++p) {
            for (int64_t q = 0; q < l; ++q) {
              double sum = 0.0;
              for (int64_t i = 0; i < m; ++i) {
                sum += pa[i * n + p] * pb[i * l + q];
              }
              pc[p * l + q] = sum;
            }
          }
        },
        "tlmm");
    c.MarkNnzDirty();
    c.ExamSparsity();
    return c;
  }

  if (!a.IsSparse() && !b.IsSparse()) {
    return internal::DenseTransposeLeft(a, b, /*symmetric=*/false,
                                        internal::ActiveTileKernel(),
                                        num_threads);
  }

  // Sparse kernels: C = t(A) %*% B as a sum over shared rows
  // (C += a_i b_i^T) with per-chunk n*l partials reduced deterministically
  // by chunk id.
  int64_t m = a.Rows(), n = a.Cols(), l = b.Cols();
  int64_t chunks = PickChunksBounded(m, n * l * 8);
  std::vector<std::vector<double>> partials(static_cast<size_t>(chunks));
  auto accumulate = [&](int64_t rb, int64_t re, int64_t ci) {
    std::vector<double>& acc = partials[static_cast<size_t>(ci)];
    acc.assign(static_cast<size_t>(n * l), 0.0);
    for (int64_t i = rb; i < re; ++i) {
      if (a.IsSparse() && !b.IsSparse()) {
        const SparseRow& arow = a.SparseData().Row(i);
        const double* brow = b.DenseRow(i);
        for (int64_t p = 0; p < arow.Size(); ++p) {
          double v = arow.Values()[p];
          double* crow = acc.data() + arow.Indexes()[p] * l;
          for (int64_t q = 0; q < l; ++q) crow[q] += v * brow[q];
        }
      } else if (!a.IsSparse()) {
        const double* arow = a.DenseRow(i);
        const SparseRow& brow = b.SparseData().Row(i);
        for (int64_t p = 0; p < n; ++p) {
          double v = arow[p];
          if (v == 0.0) continue;
          double* crow = acc.data() + p * l;
          for (int64_t q = 0; q < brow.Size(); ++q) {
            crow[brow.Indexes()[q]] += v * brow.Values()[q];
          }
        }
      } else {
        const SparseRow& arow = a.SparseData().Row(i);
        const SparseRow& brow = b.SparseData().Row(i);
        for (int64_t p = 0; p < arow.Size(); ++p) {
          double v = arow.Values()[p];
          double* crow = acc.data() + arow.Indexes()[p] * l;
          for (int64_t q = 0; q < brow.Size(); ++q) {
            crow[brow.Indexes()[q]] += v * brow.Values()[q];
          }
        }
      }
    }
  };
  if (a.IsSparse()) {
    ThreadPool::Global().ParallelForWeighted(
        0, m, chunks,
        [&](int64_t i) { return a.SparseData().Row(i).Size() + 1; },
        accumulate, "tlmm");
  } else {
    int64_t chunk_rows = (m + chunks - 1) / chunks;
    ThreadPool::Global().ParallelFor(
        0, m, chunks,
        [&](int64_t rb, int64_t re) { accumulate(rb, re, rb / chunk_rows); },
        "tlmm");
  }
  return ReducedResult(&partials, n, l, /*mirror=*/false, num_threads);
}

}  // namespace sysds
