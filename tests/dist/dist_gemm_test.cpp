#include <gtest/gtest.h>

#include <cmath>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
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

struct GemmCase {
  const char* name;
  Pattern pattern;
  std::int64_t t;
  std::int64_t k;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const GemmCase& c, std::ostream* os) { *os << c.name; }

class DistributedGemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(DistributedGemmTest, MatchesSequentialAndMessageCount) {
  const auto& param = GetParam();
  Rng rng(7);
  const linalg::DenseMatrix a_dense =
      random_dense(param.t * kNb, param.k * kNb, rng);
  const linalg::DenseMatrix b_dense =
      random_dense(param.k * kNb, param.t * kNb, rng);
  const linalg::DenseMatrix c_dense =
      random_dense(param.t * kNb, param.t * kNb, rng);

  const linalg::TiledPanel a = linalg::TiledPanel::from_dense(a_dense, kNb);
  const linalg::TiledPanel b = linalg::TiledPanel::from_dense(b_dense, kNb);
  const linalg::TiledMatrix c = linalg::TiledMatrix::from_dense(c_dense, kNb);
  const PatternDistribution dist(param.pattern, param.t, false);

  const DistRunResult result = distributed_gemm(c, a, b, dist);
  ASSERT_TRUE(result.ok);

  linalg::TiledMatrix expected = linalg::TiledMatrix::from_dense(c_dense, kNb);
  linalg::tiled_gemm(a, b, expected);
  for (std::int64_t i = 0; i < expected.dim(); ++i)
    for (std::int64_t j = 0; j < expected.dim(); ++j)
      EXPECT_DOUBLE_EQ(result.factored.at(i, j), expected.at(i, j));

  EXPECT_EQ(result.tile_messages,
            core::exact_gemm_volume(param.pattern, param.t, param.k));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedGemmTest,
    ::testing::Values(GemmCase{"single", core::make_2dbc(1, 1), 4, 3},
                      GemmCase{"grid2x2", core::make_2dbc(2, 2), 6, 4},
                      GemmCase{"grid2x3", core::make_2dbc(2, 3), 6, 3},
                      GemmCase{"tall4x1", core::make_2dbc(4, 1), 8, 2},
                      GemmCase{"g2dbc7", core::make_g2dbc(7), 10, 3}),
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      return info.param.name;
    });

TEST(DistributedGemm, IronyToledoTiskinBoundForSquareGrids) {
  // Section II-A: on a square 2DBC grid, GEMM's per-node volume is
  // 2 t^2 / sqrt(P) tiles per panel column... over k columns:
  // total = k * t * (2 sqrt(P) - 2), i.e. per node 2 k t (sqrt(P)-1)/P.
  for (const std::int64_t p : {2, 3, 5}) {
    const std::int64_t P = p * p;
    const Pattern pattern = core::make_2dbc(p, p);
    const std::int64_t t = 4 * p;
    const std::int64_t k = 6;
    const std::int64_t exact = core::exact_gemm_volume(pattern, t, k);
    EXPECT_DOUBLE_EQ(static_cast<double>(exact),
                     core::predicted_gemm_volume(pattern, t, k))
        << "P=" << P;
    const double per_node =
        static_cast<double>(exact) / static_cast<double>(P);
    const double bound = 2.0 * static_cast<double>(k) *
                         static_cast<double>(t) /
                         std::sqrt(static_cast<double>(P));
    // Per-node volume is exactly (p-1)/p of the 2kt/sqrt(P) asymptote
    // (each tile reaches p-1 remote nodes out of the p in its row/column),
    // approaching the bound from below as P grows.
    EXPECT_LT(per_node, bound);
    EXPECT_DOUBLE_EQ(per_node,
                     bound * static_cast<double>(p - 1) /
                         static_cast<double>(p));
  }
}

TEST(DistributedGemm, RejectsShapeMismatch) {
  const linalg::TiledMatrix c(4, kNb);
  const linalg::TiledPanel a(4, 2, kNb);
  const linalg::TiledPanel b(3, 4, kNb);  // inner dimension mismatch
  const PatternDistribution dist(core::make_2dbc(2, 2), 4, false);
  EXPECT_THROW(distributed_gemm(c, a, b, dist), std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::dist
