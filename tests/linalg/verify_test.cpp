#include "linalg/verify.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/oracle.hpp"
#include "util/rng.hpp"

namespace anyblock::linalg {
namespace {

void expect_same_bits(double got, double expected) {
  EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
      << got << " vs " << expected;
}

struct Shape {
  std::int64_t t;
  std::int64_t nb;
};

// (1, 1) is a scalar, (3, 7) odd tiles below a vector block, (12, 96) the
// benchmark's run-coarse shape and (64, 16) its fine shape.
constexpr Shape kShapes[] = {{1, 1}, {3, 7}, {12, 96}, {64, 16}};

TEST(Residual, LuBitIdenticalToDenseOracle) {
  for (const Shape s : kShapes) {
    SCOPED_TRACE("t=" + std::to_string(s.t) + " nb=" + std::to_string(s.nb));
    Rng rng(static_cast<std::uint64_t>(s.t * 1000 + s.nb));
    const DenseMatrix original = diag_dominant_matrix(s.t * s.nb, rng);
    TiledMatrix factored = TiledMatrix::from_dense(original, s.nb);
    // The unfactored input is a finite "factor" with a large residual.
    expect_same_bits(lu_residual(original, factored),
                     oracle::lu_residual(original, factored));
    ASSERT_TRUE(tiled_lu_nopiv(factored));
    const double residual = lu_residual(original, factored);
    expect_same_bits(residual, oracle::lu_residual(original, factored));
    EXPECT_LT(residual, 1e-12);
  }
}

TEST(Residual, CholeskyBitIdenticalToDenseOracle) {
  for (const Shape s : kShapes) {
    SCOPED_TRACE("t=" + std::to_string(s.t) + " nb=" + std::to_string(s.nb));
    Rng rng(static_cast<std::uint64_t>(s.t * 1000 + s.nb));
    const DenseMatrix original = spd_matrix(s.t * s.nb, rng);
    TiledMatrix factored = TiledMatrix::from_dense(original, s.nb);
    expect_same_bits(cholesky_residual(original, factored),
                     oracle::cholesky_residual(original, factored));
    ASSERT_TRUE(tiled_cholesky(factored));
    const double residual = cholesky_residual(original, factored);
    expect_same_bits(residual, oracle::cholesky_residual(original, factored));
    EXPECT_LT(residual, 1e-12);
  }
}

TEST(Residual, RejectsMismatchedDimensions) {
  const DenseMatrix original(8, 8, 1.0);
  const TiledMatrix factored(3, 2);
  EXPECT_THROW((void)lu_residual(original, factored), std::invalid_argument);
  EXPECT_THROW((void)cholesky_residual(original, factored),
               std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::linalg
