#include "runtime/stf_factorizations.hpp"

#include <gtest/gtest.h>

#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/verify.hpp"
#include "util/rng.hpp"

namespace anyblock::runtime {
namespace {

struct StfCase {
  std::int64_t tiles;
  std::int64_t nb;
  int workers;
  std::uint64_t seed;
};

class StfLuTest : public ::testing::TestWithParam<StfCase> {};

TEST_P(StfLuTest, MatchesSequentialAndHasSmallResidual) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const linalg::DenseMatrix original =
      linalg::diag_dominant_matrix(param.tiles * param.nb, rng);

  linalg::TiledMatrix task_based =
      linalg::TiledMatrix::from_dense(original, param.nb);
  TaskEngine engine(param.workers);
  ASSERT_TRUE(stf_lu_nopiv(engine, task_based));
  EXPECT_LT(linalg::lu_residual(original, task_based), 1e-12);

  // Bitwise identical to the sequential tiled algorithm: the STF engine
  // must impose exactly the sequential-consistency order.
  linalg::TiledMatrix sequential =
      linalg::TiledMatrix::from_dense(original, param.nb);
  ASSERT_TRUE(linalg::tiled_lu_nopiv(sequential));
  for (std::int64_t i = 0; i < task_based.dim(); ++i)
    for (std::int64_t j = 0; j < task_based.dim(); ++j)
      EXPECT_DOUBLE_EQ(task_based.at(i, j), sequential.at(i, j));
}

INSTANTIATE_TEST_SUITE_P(Grids, StfLuTest,
                         ::testing::Values(StfCase{1, 6, 1, 1},
                                           StfCase{3, 6, 2, 2},
                                           StfCase{4, 5, 4, 3},
                                           StfCase{6, 4, 3, 4},
                                           StfCase{8, 4, 8, 5}));

class StfCholeskyTest : public ::testing::TestWithParam<StfCase> {};

TEST_P(StfCholeskyTest, MatchesSequentialAndHasSmallResidual) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const linalg::DenseMatrix original =
      linalg::spd_matrix(param.tiles * param.nb, rng);

  linalg::TiledMatrix task_based =
      linalg::TiledMatrix::from_dense(original, param.nb);
  TaskEngine engine(param.workers);
  ASSERT_TRUE(stf_cholesky(engine, task_based));
  EXPECT_LT(linalg::cholesky_residual(original, task_based), 1e-12);

  linalg::TiledMatrix sequential =
      linalg::TiledMatrix::from_dense(original, param.nb);
  ASSERT_TRUE(linalg::tiled_cholesky(sequential));
  for (std::int64_t i = 0; i < task_based.dim(); ++i)
    for (std::int64_t j = 0; j <= i; ++j)
      EXPECT_DOUBLE_EQ(task_based.at(i, j), sequential.at(i, j));
}

INSTANTIATE_TEST_SUITE_P(Grids, StfCholeskyTest,
                         ::testing::Values(StfCase{1, 6, 1, 11},
                                           StfCase{3, 6, 2, 12},
                                           StfCase{4, 5, 4, 13},
                                           StfCase{6, 4, 3, 14},
                                           StfCase{8, 4, 8, 15}));

TEST(StfFactorizations, LuReportsFailure) {
  linalg::TiledMatrix zeros(3, 4);
  TaskEngine engine(2);
  EXPECT_FALSE(stf_lu_nopiv(engine, zeros));
}

TEST(StfFactorizations, CholeskyReportsFailure) {
  linalg::TiledMatrix zeros(3, 4);
  TaskEngine engine(2);
  EXPECT_FALSE(stf_cholesky(engine, zeros));
}

TEST(StfFactorizations, SubmitsTheFullTaskGraph) {
  // An 8x8 tile LU: task and dependency-edge counts must match the DAG
  // (true concurrency is covered by task_engine_test on blocking tasks —
  // on a single-core host short kernels may never physically overlap).
  Rng rng(42);
  const std::int64_t t = 8;
  linalg::TiledMatrix a = linalg::tiled_diag_dominant(t, 4, rng);
  TaskEngine engine(4);
  ASSERT_TRUE(stf_lu_nopiv(engine, a));
  std::int64_t expected_tasks = 0;
  std::int64_t expected_edges = 0;
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t k = t - 1 - l;
    expected_tasks += 1 + 2 * k + k * k;
    // Every task of iteration l > 0 follows the previous writer of its
    // tile; each TRSM reads the diagonal tile and each GEMM two panel
    // tiles.  Finalized tiles are never written again, so there are no
    // WAR edges.
    const std::int64_t chain = l > 0 ? 1 : 0;
    expected_edges += chain + 2 * k * (1 + chain) + k * k * (2 + chain);
  }
  EXPECT_EQ(engine.stats().tasks_executed, expected_tasks);
  // The inferred edges are a property of the DAG; the live ones also
  // depend on which predecessors had finished at submit time.
  EXPECT_EQ(engine.stats().inferred_edges, expected_edges);
  EXPECT_GT(engine.stats().inferred_edges, expected_tasks);
  EXPECT_LE(engine.stats().dependency_edges, engine.stats().inferred_edges);
}

}  // namespace
}  // namespace anyblock::runtime
