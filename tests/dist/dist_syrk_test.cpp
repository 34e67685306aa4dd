#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/gcrm.hpp"
#include "core/sbc.hpp"
#include "dist/dist_factorization.hpp"
#include "linalg/factorizations.hpp"
#include "util/rng.hpp"

namespace anyblock::dist {
namespace {

using core::Pattern;
using core::PatternDistribution;

constexpr std::int64_t kNb = 4;

linalg::DenseMatrix random_dense(std::int64_t rows, std::int64_t cols,
                                 Rng& rng) {
  linalg::DenseMatrix m(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i)
    for (std::int64_t j = 0; j < cols; ++j)
      m(i, j) = 2.0 * rng.uniform() - 1.0;
  return m;
}

struct SyrkCase {
  const char* name;
  Pattern pattern;
  std::int64_t t;
  std::int64_t k;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const SyrkCase& c, std::ostream* os) { *os << c.name; }

class DistributedSyrkTest : public ::testing::TestWithParam<SyrkCase> {};

TEST_P(DistributedSyrkTest, MatchesSequentialAndMessageCount) {
  const auto& param = GetParam();
  Rng rng(3);
  const linalg::DenseMatrix a_dense =
      random_dense(param.t * kNb, param.k * kNb, rng);
  linalg::DenseMatrix c_dense = random_dense(param.t * kNb, param.t * kNb, rng);
  for (std::int64_t i = 0; i < c_dense.rows(); ++i)
    for (std::int64_t j = 0; j < i; ++j) c_dense(j, i) = c_dense(i, j);

  const linalg::TiledPanel a = linalg::TiledPanel::from_dense(a_dense, kNb);
  const linalg::TiledMatrix c = linalg::TiledMatrix::from_dense(c_dense, kNb);
  const PatternDistribution dist_c(param.pattern, param.t, true);
  const PatternDistribution dist_a(param.pattern, param.t, false);

  const DistRunResult result = distributed_syrk(c, a, dist_c, dist_a);
  ASSERT_TRUE(result.ok);

  // Sequential reference.
  linalg::TiledMatrix expected = linalg::TiledMatrix::from_dense(c_dense, kNb);
  linalg::tiled_syrk(a, expected);
  for (std::int64_t i = 0; i < expected.dim(); ++i)
    for (std::int64_t j = 0; j <= i; ++j)
      EXPECT_DOUBLE_EQ(result.factored.at(i, j), expected.at(i, j));

  EXPECT_EQ(result.tile_messages,
            core::exact_syrk_volume(param.pattern, param.t, param.k));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedSyrkTest,
    ::testing::Values(SyrkCase{"single", core::make_2dbc(1, 1), 4, 3},
                      SyrkCase{"grid2x2", core::make_2dbc(2, 2), 6, 4},
                      SyrkCase{"grid3x3", core::make_2dbc(3, 3), 9, 2},
                      SyrkCase{"sbc6", core::make_sbc(6), 8, 5},
                      SyrkCase{"sbc8", core::make_sbc(8), 8, 8}),
    [](const ::testing::TestParamInfo<SyrkCase>& info) {
      return info.param.name;
    });

TEST(DistributedSyrk, GcrmPattern) {
  const core::GcrmResult built = core::gcrm_build(6, 4, 1);
  ASSERT_TRUE(built.valid);
  const std::int64_t t = 8;
  const std::int64_t k = 6;
  Rng rng(5);
  const linalg::DenseMatrix a_dense = random_dense(t * kNb, k * kNb, rng);
  const linalg::DenseMatrix c_dense = random_dense(t * kNb, t * kNb, rng);
  const linalg::TiledPanel a = linalg::TiledPanel::from_dense(a_dense, kNb);
  const linalg::TiledMatrix c = linalg::TiledMatrix::from_dense(c_dense, kNb);
  const PatternDistribution dist_c(built.pattern, t, true);
  const PatternDistribution dist_a(built.pattern, t, false);
  const DistRunResult result = distributed_syrk(c, a, dist_c, dist_a);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.tile_messages,
            core::exact_syrk_volume(built.pattern, t, k));
}

TEST(DistributedSyrk, PredictionMatchesWhenPatternDividesGrid) {
  // Q = k * t * (z-bar - 1) exactly when r | t (no partial replicas).
  const Pattern pattern = core::make_sbc(6);  // 4x4
  const std::int64_t t = 16;
  const std::int64_t k = 3;
  const std::int64_t exact = core::exact_syrk_volume(pattern, t, k);
  EXPECT_DOUBLE_EQ(static_cast<double>(exact),
                   core::predicted_syrk_volume(pattern, t, k));
}

TEST(DistributedSyrk, RejectsMismatchedPanel) {
  const linalg::TiledMatrix c(4, kNb);
  const linalg::TiledPanel a(3, 2, kNb);
  const PatternDistribution dist(core::make_2dbc(2, 2), 4, true);
  const PatternDistribution dist_a(core::make_2dbc(2, 2), 4, false);
  EXPECT_THROW(distributed_syrk(c, a, dist, dist_a), std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::dist
