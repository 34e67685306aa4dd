#include "dist/dist_solve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "core/gcrm.hpp"
#include "core/sbc.hpp"
#include "core/cost.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/solve.hpp"
#include "util/rng.hpp"

namespace anyblock::dist {
namespace {

using core::Pattern;
using core::PatternDistribution;

constexpr std::int64_t kNb = 4;

std::vector<double> random_vector(std::int64_t n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = 2.0 * rng.uniform() - 1.0;
  return v;
}

struct SolveCase {
  const char* name;
  Pattern pattern;
  std::int64_t t;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const SolveCase& c, std::ostream* os) { *os << c.name; }

class DistributedLuSolveTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(DistributedLuSolveTest, SolvesTheSystem) {
  const auto& param = GetParam();
  Rng rng(19);
  const linalg::DenseMatrix a =
      linalg::diag_dominant_matrix(param.t * kNb, rng);
  const std::vector<double> b = random_vector(param.t * kNb, rng);
  const linalg::TiledMatrix input = linalg::TiledMatrix::from_dense(a, kNb);
  const PatternDistribution dist(param.pattern, param.t, false);

  const DistSolveResult result = distributed_lu_solve(input, b, dist);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::solve_residual(a, result.x, b), 1e-11);
  EXPECT_GE(result.factor_messages, 0);
  EXPECT_GE(result.solve_messages, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedLuSolveTest,
    ::testing::Values(SolveCase{"single", core::make_2dbc(1, 1), 5},
                      SolveCase{"grid2x3", core::make_2dbc(2, 3), 8},
                      SolveCase{"tall5x1", core::make_2dbc(5, 1), 7},
                      SolveCase{"g2dbc7", core::make_g2dbc(7), 9}),
    [](const ::testing::TestParamInfo<SolveCase>& info) {
      return info.param.name;
    });

class DistributedCholSolveTest : public ::testing::TestWithParam<SolveCase> {};

TEST_P(DistributedCholSolveTest, SolvesSpdSystem) {
  const auto& param = GetParam();
  Rng rng(23);
  const linalg::DenseMatrix a = linalg::spd_matrix(param.t * kNb, rng);
  const std::vector<double> b = random_vector(param.t * kNb, rng);
  const linalg::TiledMatrix input = linalg::TiledMatrix::from_dense(a, kNb);
  const PatternDistribution dist(param.pattern, param.t, true);

  const DistSolveResult result = distributed_cholesky_solve(input, b, dist);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::solve_residual(a, result.x, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedCholSolveTest,
    ::testing::Values(SolveCase{"single", core::make_2dbc(1, 1), 5},
                      SolveCase{"grid2x2", core::make_2dbc(2, 2), 8},
                      SolveCase{"sbc3", core::make_sbc(3), 7},
                      SolveCase{"sbc6", core::make_sbc(6), 10}),
    [](const ::testing::TestParamInfo<SolveCase>& info) {
      return info.param.name;
    });

TEST(DistributedSolve, MatchesSequentialSolveBitwise) {
  Rng rng(29);
  const std::int64_t t = 6;
  const linalg::DenseMatrix a = linalg::diag_dominant_matrix(t * kNb, rng);
  const std::vector<double> b = random_vector(t * kNb, rng);
  const linalg::TiledMatrix input = linalg::TiledMatrix::from_dense(a, kNb);
  const PatternDistribution dist(core::make_2dbc(2, 2), t, false);

  const DistSolveResult distributed = distributed_lu_solve(input, b, dist);
  ASSERT_TRUE(distributed.ok);

  linalg::TiledMatrix factored = linalg::TiledMatrix::from_dense(a, kNb);
  ASSERT_TRUE(linalg::tiled_lu_nopiv(factored));
  const std::vector<double> expected = linalg::lu_solve(factored, b);
  ASSERT_EQ(distributed.x.size(), expected.size());
  // The distributed reduction groups terms per tile (gemv partial sums)
  // where the sequential solve subtracts element by element, so results
  // agree to rounding, not bitwise.
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(distributed.x[i], expected[i],
                1e-12 * (1.0 + std::abs(expected[i])))
        << i;
}

TEST(DistributedSolve, GcrmDistributionWorks) {
  const core::GcrmResult built = core::gcrm_build(6, 4, 2);
  ASSERT_TRUE(built.valid);
  Rng rng(31);
  const std::int64_t t = 10;
  const linalg::DenseMatrix a = linalg::spd_matrix(t * kNb, rng);
  const std::vector<double> b = random_vector(t * kNb, rng);
  const linalg::TiledMatrix input = linalg::TiledMatrix::from_dense(a, kNb);
  const PatternDistribution dist(built.pattern, t, true);
  const DistSolveResult result = distributed_cholesky_solve(input, b, dist);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::solve_residual(a, result.x, b), 1e-11);
}

TEST(DistributedSolve, FactorMessagesMatchPlainFactorization) {
  // The factorization phase of a solve sends exactly what the standalone
  // factorization sends.
  Rng rng(37);
  const std::int64_t t = 8;
  const Pattern pattern = core::make_2dbc(2, 3);
  const linalg::DenseMatrix a = linalg::diag_dominant_matrix(t * kNb, rng);
  const linalg::TiledMatrix input = linalg::TiledMatrix::from_dense(a, kNb);
  const std::vector<double> b = random_vector(t * kNb, rng);
  const PatternDistribution dist(pattern, t, false);
  const DistSolveResult solve = distributed_lu_solve(input, b, dist);
  EXPECT_EQ(solve.factor_messages, core::exact_lu_volume(pattern, t));
  EXPECT_GT(solve.solve_messages, 0);
}

TEST(DistributedSolve, RejectsWrongRhsLength) {
  const linalg::TiledMatrix input(4, kNb);
  const PatternDistribution dist(core::make_2dbc(2, 2), 4, false);
  EXPECT_THROW(distributed_lu_solve(input, std::vector<double>(3), dist),
               std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::dist
