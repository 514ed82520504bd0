#include "linalg/sparse_matrix.h"

#include <gtest/gtest.h>

#include "linalg/gram.h"
#include "util/rng.h"

namespace comparesets {
namespace {

Matrix RandomSparseDense(size_t rows, size_t cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) m(r, c) = rng->UniformDouble(-2.0, 2.0);
    }
  }
  return m;
}

TEST(SparseMatrixTest, AppendColumnAndElementAccess) {
  SparseMatrix m(4);
  m.AppendColumn({{0, 1.0}, {2, -3.0}});
  m.AppendColumn({});
  m.AppendColumn({{3, 0.5}});

  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(3, 2), 0.5);
  EXPECT_EQ(m.ColumnNnz(0), 2u);
  EXPECT_EQ(m.ColumnNnz(1), 0u);
}

TEST(SparseMatrixTest, DenseRoundTrip) {
  Rng rng(11);
  Matrix dense = RandomSparseDense(9, 7, 0.3, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_TRUE(sparse.ToDense() == dense);
}

TEST(SparseMatrixTest, ColumnMatchesDense) {
  Rng rng(12);
  Matrix dense = RandomSparseDense(6, 5, 0.4, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  for (size_t c = 0; c < dense.cols(); ++c) {
    EXPECT_TRUE(sparse.Column(c) == dense.Column(c)) << "column " << c;
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  Rng rng(13);
  Matrix dense = RandomSparseDense(8, 6, 0.35, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Vector x(6);
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.Normal();
  Vector expected = dense.Multiply(x);
  Vector got = sparse.Multiply(x);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-12);
  }
}

TEST(SparseMatrixTest, MultiplyTransposeMatchesDenseAndReusesWorkspace) {
  Rng rng(14);
  Matrix dense = RandomSparseDense(10, 4, 0.5, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Vector x(10);
  for (size_t i = 0; i < x.size(); ++i) x[i] = rng.Normal();
  Vector expected = dense.MultiplyTranspose(x);

  Vector workspace(99, 7.0);  // Wrong size and stale content on purpose.
  sparse.MultiplyTranspose(x, &workspace);
  ASSERT_EQ(workspace.size(), dense.cols());
  for (size_t i = 0; i < workspace.size(); ++i) {
    EXPECT_NEAR(workspace[i], expected[i], 1e-12);
  }
}

TEST(SparseMatrixTest, ColumnNormsMatchDense) {
  Rng rng(15);
  Matrix dense = RandomSparseDense(12, 8, 0.25, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  std::vector<double> norms = sparse.ColumnNorms();
  ASSERT_EQ(norms.size(), dense.cols());
  for (size_t c = 0; c < dense.cols(); ++c) {
    EXPECT_NEAR(norms[c], dense.Column(c).NormL2(), 1e-12) << "column " << c;
  }
}

TEST(SparseMatrixTest, GramSystemMatchesDenseNormalEquations) {
  Rng rng(16);
  Matrix dense = RandomSparseDense(14, 6, 0.3, &rng);
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Vector target(14);
  for (size_t i = 0; i < target.size(); ++i) target[i] = rng.Normal();

  GramSystem gram = BuildGramSystem(sparse, target);
  ASSERT_EQ(gram.cols(), 6u);
  EXPECT_NEAR(gram.target_norm2, target.Dot(target), 1e-12);
  Vector vty = dense.MultiplyTranspose(target);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(gram.vty[i], vty[i], 1e-12);
    EXPECT_NEAR(gram.col_norms[i], dense.Column(i).NormL2(), 1e-12);
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(gram.gram(i, j), dense.Column(i).Dot(dense.Column(j)),
                  1e-12)
          << "G(" << i << "," << j << ")";
      EXPECT_DOUBLE_EQ(gram.gram(i, j), gram.gram(j, i));
    }
  }
}

TEST(SparseMatrixTest, GramSystemWithEmptyTrailingColumn) {
  // The last column has no entries, so its span starts at nnz(): one past
  // the last stored entry. Under _GLIBCXX_ASSERTIONS, taking that span
  // by element access aborted the build.
  SparseMatrix sparse(3);
  sparse.AppendColumn({{0, 1.0}, {2, 2.0}});
  sparse.AppendColumn({{1, -1.5}});
  sparse.AppendColumn({});
  ASSERT_EQ(sparse.ColumnNnz(2), 0u);
  EXPECT_EQ(sparse.ColumnRows(2), sparse.RowIdx() + sparse.nnz());
  EXPECT_EQ(sparse.ColumnValues(2), sparse.Values() + sparse.nnz());

  Vector target(3);
  target[0] = 1.0;
  target[1] = 2.0;
  target[2] = 3.0;
  GramSystem gram = BuildGramSystem(sparse, target);
  ASSERT_EQ(gram.cols(), 3u);
  EXPECT_DOUBLE_EQ(gram.gram(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(gram.gram(1, 1), 2.25);
  EXPECT_DOUBLE_EQ(gram.gram(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(gram.vty[0], 7.0);
  EXPECT_DOUBLE_EQ(gram.vty[1], -3.0);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(gram.gram(i, 2), 0.0);
    EXPECT_DOUBLE_EQ(gram.gram(2, i), 0.0);
  }
  EXPECT_DOUBLE_EQ(gram.vty[2], 0.0);
  EXPECT_DOUBLE_EQ(gram.col_norms[2], 0.0);
  EXPECT_DOUBLE_EQ(sparse.ColumnDot(2, target), 0.0);
}

TEST(SparseMatrixTest, EmptyMatrixHasNoColumns) {
  SparseMatrix m(5);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  Matrix dense = m.ToDense();
  EXPECT_EQ(dense.rows(), 5u);
  EXPECT_EQ(dense.cols(), 0u);
}

}  // namespace
}  // namespace comparesets
