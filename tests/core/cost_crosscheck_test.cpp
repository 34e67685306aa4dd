// Cross-validation of the two independent exact-volume implementations:
// the Pattern counters (with the cyclic-periodicity shortcut) and the
// generic Distribution counters (no shortcut).  Any bookkeeping error in
// either would break the exact equality.  Only LU has two: the Cholesky
// Pattern counter forwards to the Distribution one (free diagonal cells
// leave no shortcut), so the Cholesky cases pin that forwarding, and
// ConsumerRule.* checks the Cholesky walk against the materialized builders.
#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/gcrm.hpp"
#include "core/sbc.hpp"
#include "util/rng.hpp"

namespace anyblock::core {
namespace {

class LuCrosscheckTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(LuCrosscheckTest, PatternAndGenericCountersAgree) {
  const std::int64_t P = GetParam();
  const Pattern pattern = make_g2dbc(P);
  for (const std::int64_t t : {5, 13, 24, 40}) {
    const PatternDistribution dist(pattern, t, /*symmetric=*/false);
    EXPECT_EQ(exact_lu_volume(pattern, t), exact_lu_volume(dist, t))
        << "P=" << P << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, LuCrosscheckTest,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 13, 17, 23));

class CholCrosscheckTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CholCrosscheckTest, PatternAndGenericCountersAgree) {
  const std::int64_t P = GetParam();
  const Pattern pattern = make_sbc(P);
  for (const std::int64_t t : {5, 13, 24, 40}) {
    const PatternDistribution dist(pattern, t, /*symmetric=*/true);
    EXPECT_EQ(exact_cholesky_volume(pattern, t),
              exact_cholesky_volume(dist, t))
        << "P=" << P << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, CholCrosscheckTest,
                         ::testing::Values(1, 3, 6, 8, 10, 15, 18, 21, 28));

TEST(CostCrosscheck, GcrmPatternsAgreeToo) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 2ULL}) {
    const GcrmResult result = gcrm_build(11, 6, seed);
    if (!result.valid) continue;
    const std::int64_t t = 20;
    const PatternDistribution dist(result.pattern, t, true);
    EXPECT_EQ(exact_cholesky_volume(result.pattern, t),
              exact_cholesky_volume(dist, t));
  }
}

TEST(CostCrosscheck, RandomExplicitDistributionsAreCountable) {
  // The generic counter accepts arbitrary owner maps — fuzz it for crashes
  // and basic sanity (volume bounded by tiles * (P-1) senders-receivers).
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    const std::int64_t t = 8;
    const std::int64_t P = 1 + static_cast<std::int64_t>(rng.below(6));
    std::vector<NodeId> owners(static_cast<std::size_t>(t * t));
    for (auto& o : owners) o = static_cast<NodeId>(rng.below(
        static_cast<std::uint64_t>(P)));
    const ExplicitDistribution dist(std::move(owners), t, P);
    const std::int64_t lu = exact_lu_volume(dist, t);
    const std::int64_t chol = exact_cholesky_volume(dist, t);
    EXPECT_GE(lu, 0);
    EXPECT_GE(chol, 0);
    EXPECT_LE(lu, t * t * (P - 1) * 2);
    EXPECT_LE(chol, t * t * (P - 1));
    if (P == 1) {
      EXPECT_EQ(lu, 0);
      EXPECT_EQ(chol, 0);
    }
  }
}

TEST(CostCrosscheck, Eq1ConvergesToExactCount) {
  // The relative gap between Eq. 1 and the exact count shrinks like 1/t.
  const Pattern pattern = make_g2dbc(10);
  double previous_gap = 1e9;
  for (const std::int64_t t : {12, 24, 48, 96}) {
    const double exact = static_cast<double>(exact_lu_volume(pattern, t));
    const double predicted = predicted_lu_volume(pattern, t);
    const double gap = std::abs(exact - predicted) / predicted;
    EXPECT_LT(gap, previous_gap * 1.01) << "t=" << t;
    previous_gap = gap;
  }
  EXPECT_LT(previous_gap, 0.05);
}

}  // namespace
}  // namespace anyblock::core
