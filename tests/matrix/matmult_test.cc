#include "runtime/matrix/lib_matmult.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "runtime/matrix/lib_datagen.h"
#include "runtime/matrix/lib_reorg.h"

namespace sysds {
namespace {

// Reference O(n^3) matmult on Get()/Set() only.
MatrixBlock RefMatMult(const MatrixBlock& a, const MatrixBlock& b) {
  MatrixBlock c = MatrixBlock::Dense(a.Rows(), b.Cols());
  for (int64_t i = 0; i < a.Rows(); ++i) {
    for (int64_t j = 0; j < b.Cols(); ++j) {
      double sum = 0;
      for (int64_t k = 0; k < a.Cols(); ++k) {
        sum += a.Get(i, k) * b.Get(k, j);
      }
      c.Set(i, j, sum);
    }
  }
  return c;
}

MatrixBlock Random(int64_t rows, int64_t cols, double sparsity,
                   uint64_t seed) {
  auto m = RandMatrix(rows, cols, -1.0, 1.0, sparsity, seed,
                      RandPdf::kUniform, 1);
  return *m;
}

struct MatMultCase {
  int64_t m, k, n;
  double sp_a, sp_b;
  int threads;
};

class MatMultParamTest : public ::testing::TestWithParam<MatMultCase> {};

TEST_P(MatMultParamTest, MatchesReference) {
  const MatMultCase& c = GetParam();
  MatrixBlock a = Random(c.m, c.k, c.sp_a, 1);
  MatrixBlock b = Random(c.k, c.n, c.sp_b, 2);
  if (c.sp_a < 0.4) a.ToSparse();
  if (c.sp_b < 0.4) b.ToSparse();
  auto result = MatMult(a, b, c.threads);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->EqualsApprox(RefMatMult(a, b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMultParamTest,
    ::testing::Values(
        MatMultCase{1, 1, 1, 1.0, 1.0, 1},      // degenerate
        MatMultCase{17, 23, 11, 1.0, 1.0, 1},   // dense odd shapes
        MatMultCase{64, 64, 64, 1.0, 1.0, 4},   // dense threaded
        MatMultCase{40, 60, 50, 0.1, 1.0, 2},   // sparse-dense
        MatMultCase{40, 60, 50, 1.0, 0.1, 2},   // dense-sparse
        MatMultCase{40, 60, 50, 0.1, 0.1, 2},   // sparse-sparse
        MatMultCase{100, 3, 1, 1.0, 1.0, 4},    // matrix-vector
        MatMultCase{1, 50, 50, 1.0, 1.0, 1},    // vector-matrix
        MatMultCase{130, 70, 90, 0.05, 1.0, 8}));

TEST(MatMultTest, DimensionMismatchRejected) {
  MatrixBlock a = MatrixBlock::Dense(2, 3);
  MatrixBlock b = MatrixBlock::Dense(4, 2);
  EXPECT_FALSE(MatMult(a, b, 1).ok());
}

TEST(MatMultTest, PortableAndNativeKernelsAgree) {
  MatrixBlock a = Random(37, 53, 1.0, 3);
  MatrixBlock b = Random(53, 29, 1.0, 4);
  SetGemmKernel(GemmKernel::kPortable);
  auto c1 = MatMult(a, b, 1);
  SetGemmKernel(GemmKernel::kNative);
  auto c2 = MatMult(a, b, 1);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_TRUE(c1->EqualsApprox(*c2, 1e-9));
}

class TsmmParamTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, double>> {
};

TEST_P(TsmmParamTest, LeftMatchesExplicit) {
  auto [rows, cols, sp] = GetParam();
  MatrixBlock x = Random(rows, cols, sp, 5);
  if (sp < 0.4) x.ToSparse();
  auto fused = TransposeSelfMatMult(x, /*left=*/true, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock xt = Transpose(x, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(xt, x), 1e-9));
}

TEST_P(TsmmParamTest, RightMatchesExplicit) {
  auto [rows, cols, sp] = GetParam();
  MatrixBlock x = Random(rows, cols, sp, 6);
  if (sp < 0.4) x.ToSparse();
  auto fused = TransposeSelfMatMult(x, /*left=*/false, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock xt = Transpose(x, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(x, xt), 1e-9));
}

// The dense shapes put every tile edge in play: column counts below, at and
// above the vector and tile widths, and 203 rows, which split into 25
// chunks of 9 rows with a partial last chunk of 5.
INSTANTIATE_TEST_SUITE_P(
    Shapes, TsmmParamTest,
    ::testing::Values(std::make_tuple(50, 10, 1.0),
                      std::make_tuple(33, 17, 1.0),
                      std::make_tuple(64, 8, 0.1),
                      std::make_tuple(200, 20, 0.05),
                      std::make_tuple(5, 5, 1.0),
                      std::make_tuple(203, 1, 1.0),
                      std::make_tuple(203, 7, 1.0),
                      std::make_tuple(203, 8, 1.0),
                      std::make_tuple(203, 9, 1.0),
                      std::make_tuple(203, 15, 1.0),
                      std::make_tuple(203, 16, 1.0),
                      std::make_tuple(203, 17, 1.0),
                      std::make_tuple(203, 24, 1.0),
                      std::make_tuple(203, 200, 1.0)));

TEST(TsmmTest, PortableAndNativeKernelsAgree) {
  MatrixBlock x = Random(83, 21, 1.0, 11);
  MatrixBlock y = Random(83, 5, 1.0, 12);
  SetGemmKernel(GemmKernel::kPortable);
  auto t1 = TransposeSelfMatMult(x, true, 2);
  auto m1 = TransposeLeftMatMult(x, y, 2);
  SetGemmKernel(GemmKernel::kNative);
  auto t2 = TransposeSelfMatMult(x, true, 2);
  auto m2 = TransposeLeftMatMult(x, y, 2);
  ASSERT_TRUE(t1.ok() && t2.ok() && m1.ok() && m2.ok());
  EXPECT_TRUE(t1->EqualsApprox(*t2, 1e-9));
  EXPECT_TRUE(m1->EqualsApprox(*m2, 1e-9));
}

TEST(TsmmTest, ResultIsSymmetric) {
  MatrixBlock x = Random(40, 12, 1.0, 7);
  auto c = TransposeSelfMatMult(x, true, 2);
  ASSERT_TRUE(c.ok());
  for (int64_t i = 0; i < c->Rows(); ++i) {
    for (int64_t j = 0; j < c->Cols(); ++j) {
      EXPECT_DOUBLE_EQ(c->Get(i, j), c->Get(j, i));
    }
  }
}

class TmmParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(TmmParamTest, MatchesExplicitTranspose) {
  auto [sp_a, sp_b] = GetParam();
  MatrixBlock a = Random(60, 15, sp_a, 8);
  MatrixBlock b = Random(60, 7, sp_b, 9);
  if (sp_a < 0.4) a.ToSparse();
  if (sp_b < 0.4) b.ToSparse();
  auto fused = TransposeLeftMatMult(a, b, 3);
  ASSERT_TRUE(fused.ok());
  MatrixBlock at = Transpose(a, 1);
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(at, b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(SparsityCombos, TmmParamTest,
                         ::testing::Values(std::make_tuple(1.0, 1.0),
                                           std::make_tuple(0.1, 1.0),
                                           std::make_tuple(1.0, 0.1),
                                           std::make_tuple(0.1, 0.1)));

// Dense t(A) %*% B over (rows, A cols, B cols): A's column count sets the
// tile's row edge, B's its vector edge.
class TlmmShapeTest : public ::testing::TestWithParam<
                          std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(TlmmShapeTest, MatchesExplicitTranspose) {
  auto [rows, n, l] = GetParam();
  MatrixBlock a = Random(rows, n, 1.0, 13);
  MatrixBlock b = Random(rows, l, 1.0, 14);
  auto fused = TransposeLeftMatMult(a, b, 3);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(fused->EqualsApprox(RefMatMult(Transpose(a, 1), b), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TlmmShapeTest,
    ::testing::Values(std::make_tuple(203, 1, 7), std::make_tuple(203, 7, 1),
                      std::make_tuple(203, 8, 9), std::make_tuple(203, 9, 8),
                      std::make_tuple(203, 15, 16),
                      std::make_tuple(203, 16, 15),
                      std::make_tuple(203, 17, 24),
                      std::make_tuple(203, 24, 17),
                      std::make_tuple(203, 200, 1),
                      std::make_tuple(203, 1, 200),
                      std::make_tuple(203, 17, 200)));

// A zero and an Inf in one dense row: every kernel multiplies all elements,
// so the cells pairing them are 0 * Inf = NaN, as in the portable kernel.
// One such row sits mid-matrix, one is the last row.
TEST(TsmmTest, ZeroTimesInfIsNaNInDenseKernels) {
  const double inf = std::numeric_limits<double>::infinity();
  MatrixBlock x = Random(203, 19, 1.0, 15);
  x.Set(100, 2, 0.0);
  x.Set(100, 6, inf);
  x.Set(202, 11, 0.0);
  x.Set(202, 17, inf);
  MatrixBlock z = Random(203, 3, 1.0, 16);
  z.Set(100, 1, 0.0);
  x.MarkNnzDirty();
  z.MarkNnzDirty();
  SetGemmKernel(GemmKernel::kPortable);
  auto tsmm_ref = TransposeSelfMatMult(x, true, 2);
  auto tlmm_ref = TransposeLeftMatMult(z, x, 2);
  SetGemmKernel(GemmKernel::kNative);
  auto tsmm = TransposeSelfMatMult(x, true, 2);
  auto tlmm = TransposeLeftMatMult(z, x, 2);
  auto tlmm_self = TransposeLeftMatMult(x, x, 2);
  ASSERT_TRUE(tsmm_ref.ok() && tlmm_ref.ok() && tsmm.ok() && tlmm.ok() &&
              tlmm_self.ok());
  for (const auto& [p, q] : {std::pair{2, 6}, std::pair{6, 2},
                             std::pair{11, 17}, std::pair{17, 11}}) {
    EXPECT_TRUE(std::isnan(tsmm_ref->Get(p, q))) << p << "," << q;
    EXPECT_TRUE(std::isnan(tsmm->Get(p, q))) << p << "," << q;
    EXPECT_TRUE(std::isnan(tlmm_self->Get(p, q))) << p << "," << q;
  }
  EXPECT_TRUE(std::isnan(tlmm_ref->Get(1, 6)));
  EXPECT_TRUE(std::isnan(tlmm->Get(1, 6)));
  EXPECT_TRUE(tsmm->EqualsApprox(*tsmm_ref, 1e-9));
  EXPECT_TRUE(tlmm->EqualsApprox(*tlmm_ref, 1e-9));
  EXPECT_TRUE(tlmm_self->EqualsApprox(*tsmm_ref, 1e-9));
}

bool BitIdentical(const MatrixBlock& a, const MatrixBlock& b) {
  return a.Rows() == b.Rows() && a.Cols() == b.Cols() &&
         std::memcmp(a.DenseData(), b.DenseData(),
                     static_cast<size_t>(a.Rows() * a.Cols()) *
                         sizeof(double)) == 0;
}

// Every tile-kernel build this CPU can run, reached through the internal
// variant table: each agrees with the portable kernel and is bit-identical
// across thread counts. The 16411-row shape gives chunks of 257 rows, more
// than one kernel row block at 64 + 64 columns.
TEST(TsmmTest, EveryTileKernelVariantAgreesAndIsDeterministic) {
  struct Shape {
    int64_t rows, n, l;
  };
  int ran = 0;
  for (Shape s : {Shape{203, 17, 9}, Shape{2000, 200, 1},
                  Shape{16411, 64, 64}, Shape{100, 1, 24}}) {
    MatrixBlock a = Random(s.rows, s.n, 1.0, 17);
    MatrixBlock b = Random(s.rows, s.l, 1.0, 18);
    SetGemmKernel(GemmKernel::kPortable);
    auto tsmm_ref = TransposeSelfMatMult(a, true, 4);
    auto tlmm_ref = TransposeLeftMatMult(a, b, 4);
    SetGemmKernel(GemmKernel::kNative);
    ASSERT_TRUE(tsmm_ref.ok() && tlmm_ref.ok());
    for (const internal::TileKernelVariant& v :
         internal::TileKernelVariants()) {
      if (!v.supported()) continue;
      ++ran;
      MatrixBlock tsmm1 = internal::DenseTransposeLeft(a, a, true, v, 1);
      MatrixBlock tlmm1 = internal::DenseTransposeLeft(a, b, false, v, 1);
      EXPECT_TRUE(tsmm1.EqualsApprox(*tsmm_ref, 1e-9)) << v.name;
      EXPECT_TRUE(tlmm1.EqualsApprox(*tlmm_ref, 1e-9)) << v.name;
      for (int t : {2, 4, 8}) {
        EXPECT_TRUE(BitIdentical(
            tsmm1, internal::DenseTransposeLeft(a, a, true, v, t)))
            << v.name << " tsmm t=" << t;
        EXPECT_TRUE(BitIdentical(
            tlmm1, internal::DenseTransposeLeft(a, b, false, v, t)))
            << v.name << " tlmm t=" << t;
      }
    }
  }
  EXPECT_GE(ran, 4);
  EXPECT_TRUE(internal::ActiveTileKernel().supported());
}

TEST(TmmTest, RowMismatchRejected) {
  MatrixBlock a = MatrixBlock::Dense(5, 2);
  MatrixBlock b = MatrixBlock::Dense(6, 2);
  EXPECT_FALSE(TransposeLeftMatMult(a, b, 1).ok());
}

TEST(MatMultTest, EmptyMatrix) {
  MatrixBlock a = MatrixBlock::Dense(0, 3);
  MatrixBlock b = MatrixBlock::Dense(3, 4);
  auto c = MatMult(a, b, 1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->Rows(), 0);
  EXPECT_EQ(c->Cols(), 4);
}

}  // namespace
}  // namespace sysds
