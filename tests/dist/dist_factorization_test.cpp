#include "dist/dist_factorization.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/gcrm.hpp"
#include "core/sbc.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/verify.hpp"
#include "util/rng.hpp"

#include "digest.hpp"

namespace anyblock::dist {
namespace {

using core::Pattern;
using core::PatternDistribution;

constexpr std::int64_t kNb = 4;  // tiny tiles keep the thread runs quick

struct LuCase {
  const char* name;
  Pattern pattern;
  std::int64_t t;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const LuCase& c, std::ostream* os) { *os << c.name; }

class DistributedLuTest : public ::testing::TestWithParam<LuCase> {};

TEST_P(DistributedLuTest, ResidualAndMessageCount) {
  const auto& param = GetParam();
  Rng rng(7);
  const linalg::DenseMatrix original =
      linalg::diag_dominant_matrix(param.t * kNb, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, kNb);
  const PatternDistribution distribution(param.pattern, param.t,
                                         /*symmetric=*/false);

  const DistRunResult result = distributed_lu(input, distribution);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::lu_residual(original, result.factored), 1e-12);

  // The run's tile messages must equal the exact owner-computes volume —
  // the quantity Eq. 1 approximates and T(G) ranks.
  EXPECT_EQ(result.tile_messages,
            core::exact_lu_volume(param.pattern, param.t));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedLuTest,
    ::testing::Values(
        LuCase{"single", core::make_2dbc(1, 1), 4},
        LuCase{"row2", core::make_2dbc(1, 2), 6},
        LuCase{"grid2x3", core::make_2dbc(2, 3), 8},
        LuCase{"grid3x3", core::make_2dbc(3, 3), 9},
        LuCase{"tall5x1", core::make_2dbc(5, 1), 8},
        LuCase{"g2dbc10", core::make_g2dbc(10), 12},
        LuCase{"g2dbc7", core::make_g2dbc(7), 10}),
    [](const ::testing::TestParamInfo<LuCase>& info) {
      return info.param.name;
    });

struct CholCase {
  const char* name;
  Pattern pattern;
  std::int64_t t;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const CholCase& c, std::ostream* os) { *os << c.name; }

class DistributedCholeskyTest : public ::testing::TestWithParam<CholCase> {};

TEST_P(DistributedCholeskyTest, ResidualAndMessageCount) {
  const auto& param = GetParam();
  Rng rng(9);
  const linalg::DenseMatrix original = linalg::spd_matrix(param.t * kNb, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, kNb);
  const PatternDistribution distribution(param.pattern, param.t,
                                         /*symmetric=*/true);

  const DistRunResult result = distributed_cholesky(input, distribution);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::cholesky_residual(original, result.factored), 1e-12);
  EXPECT_EQ(result.tile_messages,
            core::exact_cholesky_volume(param.pattern, param.t));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributedCholeskyTest,
    ::testing::Values(
        CholCase{"single", core::make_2dbc(1, 1), 4},
        CholCase{"grid2x2", core::make_2dbc(2, 2), 8},
        CholCase{"grid3x3", core::make_2dbc(3, 3), 9},
        CholCase{"sbc3", core::make_sbc(3), 8},
        CholCase{"sbc6", core::make_sbc(6), 10},
        CholCase{"sbc8", core::make_sbc(8), 10}),
    [](const ::testing::TestParamInfo<CholCase>& info) {
      return info.param.name;
    });

TEST(DistributedCholesky, GcrmPatternEndToEnd) {
  // The full pipeline the paper proposes: GCR&M pattern -> lazy diagonal
  // binding -> distributed Cholesky, verified numerically and in message
  // counts.
  const core::GcrmResult built = core::gcrm_build(6, 4, 2);
  ASSERT_TRUE(built.valid);
  const std::int64_t t = 10;
  Rng rng(11);
  const linalg::DenseMatrix original = linalg::spd_matrix(t * kNb, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, kNb);
  const PatternDistribution distribution(built.pattern, t, true);

  const DistRunResult result = distributed_cholesky(input, distribution);
  ASSERT_TRUE(result.ok);
  EXPECT_LT(linalg::cholesky_residual(original, result.factored), 1e-12);
  EXPECT_EQ(result.tile_messages,
            core::exact_cholesky_volume(built.pattern, t));
}

TEST(DistributedLu, Eq1PredictionIsClose) {
  // Eq. 1 neglects edge effects; at t = 24 with a 2x3 pattern the measured
  // volume should sit within ~15% of the prediction.
  const Pattern pattern = core::make_2dbc(2, 3);
  const std::int64_t t = 24;
  Rng rng(13);
  const linalg::TiledMatrix input = linalg::tiled_diag_dominant(t, kNb, rng);
  const PatternDistribution distribution(pattern, t, false);
  const DistRunResult result = distributed_lu(input, distribution);
  ASSERT_TRUE(result.ok);
  const double predicted = core::predicted_lu_volume(pattern, t);
  EXPECT_NEAR(static_cast<double>(result.tile_messages) / predicted, 1.0,
              0.15);
}

TEST(DistributedLu, MatchesSequentialBitwise) {
  const Pattern pattern = core::make_2dbc(2, 2);
  const std::int64_t t = 6;
  Rng rng(17);
  const linalg::DenseMatrix original =
      linalg::diag_dominant_matrix(t * kNb, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, kNb);
  const PatternDistribution distribution(pattern, t, false);
  const DistRunResult result = distributed_lu(input, distribution);
  ASSERT_TRUE(result.ok);

  linalg::TiledMatrix sequential =
      linalg::TiledMatrix::from_dense(original, kNb);
  ASSERT_TRUE(linalg::tiled_lu_nopiv(sequential));
  for (std::int64_t i = 0; i < sequential.dim(); ++i)
    for (std::int64_t j = 0; j < sequential.dim(); ++j)
      EXPECT_DOUBLE_EQ(result.factored.at(i, j), sequential.at(i, j));
}

/// FNV-1a digest of a factor's tiles, row-major, lower tiles only for
/// Cholesky (its strict upper tiles keep the input).
std::uint64_t factor_digest(const linalg::TiledMatrix& m, bool lower_only) {
  testing_digest::Digest digest;
  for (std::int64_t i = 0; i < m.tiles(); ++i)
    for (std::int64_t j = 0; j < (lower_only ? i + 1 : m.tiles()); ++j)
      for (const double value : m.tile(i, j)) digest.add(value);
  return digest.value();
}

struct PinnedFactor {
  const char* name;
  bool cholesky;
  std::int64_t t;
  std::int64_t nb;
  std::uint64_t digest;
};

// Recorded from the scalar loop-nest tile kernels.  The tile sizes straddle
// a vectorized kernel's register block (4 rows x 16 columns): nb = 96 is
// the benchmark's run-coarse shape, nb = 16 one exact block, nb = 17 a
// block plus a remainder row and column.  Any kernel rewrite must keep
// every factor bit for bit, distributed and sequential alike.
TEST(DistGolden, FactorsAtVectorBlockSizesMatchPinnedDigests) {
  const std::vector<PinnedFactor> pinned = {
      {"lu g2dbc3 t=12 nb=96", false, 12, 96, 0x3a6a16e0cdc87668ull},
      {"cholesky gcrm4 t=12 nb=96", true, 12, 96, 0x1c2a4825c6e6b310ull},
      {"lu g2dbc3 t=12 nb=16", false, 12, 16, 0x3b2e396ac8b1fe57ull},
      {"cholesky gcrm4 t=12 nb=16", true, 12, 16, 0xf6a865bff7d4f425ull},
      {"lu g2dbc3 t=12 nb=17", false, 12, 17, 0xd8fb95626b720eb7ull},
      {"cholesky gcrm4 t=12 nb=17", true, 12, 17, 0xeb2be843b84eed9aull},
  };
  // GCR&M P = 4 as data/gcrm_winners.tsv serves it to `anyblock run`.
  const core::GcrmResult gcrm = core::gcrm_build(4, 9, 486653322000052263ull);
  ASSERT_TRUE(gcrm.valid);
  for (const PinnedFactor& row : pinned) {
    SCOPED_TRACE(row.name);
    Rng rng(7);
    const std::int64_t n = row.t * row.nb;
    const linalg::DenseMatrix original =
        row.cholesky ? linalg::spd_matrix(n, rng)
                     : linalg::diag_dominant_matrix(n, rng);
    const linalg::TiledMatrix input =
        linalg::TiledMatrix::from_dense(original, row.nb);
    const PatternDistribution distribution(
        row.cholesky ? gcrm.pattern : core::make_g2dbc(3), row.t,
        row.cholesky);
    const DistRunResult result =
        row.cholesky ? distributed_cholesky(input, distribution)
                     : distributed_lu(input, distribution);
    ASSERT_TRUE(result.ok);
    linalg::TiledMatrix sequential = input;
    ASSERT_TRUE(row.cholesky ? linalg::tiled_cholesky(sequential)
                             : linalg::tiled_lu_nopiv(sequential));
    EXPECT_EQ(factor_digest(result.factored, row.cholesky), row.digest)
        << std::hex << "0x" << factor_digest(result.factored, row.cholesky);
    EXPECT_EQ(factor_digest(sequential, row.cholesky), row.digest);
  }
}

}  // namespace
}  // namespace anyblock::dist
