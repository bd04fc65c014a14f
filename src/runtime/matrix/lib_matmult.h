#ifndef SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_
#define SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_

#include <vector>

#include "common/status.h"
#include "runtime/matrix/matrix_block.h"

namespace sysds {

/// Selects the dense GEMM implementation, mirroring the paper's §4.2
/// distinction between SystemDS's portable (Java) kernel and the native
/// BLAS path (SysDS-B): kPortable is a straightforward dot-product-ordered
/// loop nest without tiling (no "packed SIMD"); kNative is the
/// cache-blocked GEMM plus, for dense tsmm and tlmm, a register-blocked
/// tile kernel built per ISA and chosen at startup.
enum class GemmKernel {
  kPortable,
  kNative,
};

/// Sets/gets the process-wide dense GEMM kernel (benchmarks toggle this).
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

/// C = A %*% B. Dispatches on the input formats (dense/sparse on either
/// side) and shape fast paths (matrix-vector). Inputs must satisfy
/// a.Cols() == b.Rows(); violations return InvalidArgument.
StatusOr<MatrixBlock> MatMult(const MatrixBlock& a, const MatrixBlock& b,
                              int num_threads);

/// Fused transpose-self matrix multiply (the `tsmm` operator the compiler
/// rewrites t(X)%*%X into, §4.2): left => t(X)%*%X, otherwise X%*%t(X).
StatusOr<MatrixBlock> TransposeSelfMatMult(const MatrixBlock& x, bool left,
                                           int num_threads);

/// Fused C = t(A) %*% B without materializing t(A) (the `tsmm2`-style fused
/// call the paper notes TF lacks for sparse inputs).
StatusOr<MatrixBlock> TransposeLeftMatMult(const MatrixBlock& a,
                                           const MatrixBlock& b,
                                           int num_threads);

namespace internal {
// Exposed for the kernel micro-benchmarks (bench_kernels).
void GemmDensePortable(const double* a, const double* b, double* c,
                       int64_t m, int64_t n, int64_t k);
void GemmDenseTiled(const double* a, const double* b, double* c, int64_t m,
                    int64_t n, int64_t k);

struct TileBlock;

/// One ISA build of the register-blocked tile kernel behind the dense
/// (kNative) tsmm and tlmm paths. All builds come from one source; they
/// differ in vector width and in whether multiply-add is fused.
struct TileKernelVariant {
  const char* name;
  int lanes;            // doubles per vector register
  bool (*supported)();  // whether this CPU can run the variant
  void (*panel)(const TileBlock&);
};

/// Every variant compiled into this binary, widest first. Exposed so tests
/// and benchmarks can run each one; the runtime itself uses only
/// ActiveTileKernel().
const std::vector<TileKernelVariant>& TileKernelVariants();

/// The first supported variant, chosen once on first use.
const TileKernelVariant& ActiveTileKernel();

/// Dense t(A) %*% B through `kernel`. `symmetric` means A is B (tsmm): only
/// tiles reaching the upper triangle run, and the result is mirrored.
MatrixBlock DenseTransposeLeft(const MatrixBlock& a, const MatrixBlock& b,
                               bool symmetric, const TileKernelVariant& kernel,
                               int num_threads);
}  // namespace internal

}  // namespace sysds

#endif  // SYSDS_RUNTIME_MATRIX_LIB_MATMULT_H_
