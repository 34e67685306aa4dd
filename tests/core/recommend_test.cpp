#include "core/recommend.hpp"

#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/sbc.hpp"

namespace anyblock::core {
namespace {

RecommendOptions fast_options() {
  RecommendOptions options;
  options.search.seeds = 10;
  return options;
}

TEST(Recommend, LuPicksPlain2dbcWhenDegenerate) {
  for (const std::int64_t P : {4, 6, 12, 16, 20, 36}) {
    const Recommendation rec = recommend_pattern(P, Kernel::kLu);
    EXPECT_EQ(rec.scheme, "2DBC") << P;
    EXPECT_EQ(rec.pattern.rows() * rec.pattern.cols(), P);
  }
}

TEST(Recommend, LuPicksG2dbcForAwkwardCounts) {
  for (const std::int64_t P : {23, 31, 39, 47}) {
    const Recommendation rec = recommend_pattern(P, Kernel::kLu);
    EXPECT_EQ(rec.scheme, "G-2DBC") << P;
    EXPECT_EQ(rec.pattern.num_nodes(), P);
    // The pattern itself, not only its label: G-2DBC, strictly cheaper
    // than the best plain 2DBC grid at these counts.
    EXPECT_EQ(rec.pattern, make_g2dbc(P)) << P;
    EXPECT_DOUBLE_EQ(rec.cost, lu_cost(rec.pattern)) << P;
    EXPECT_LT(lu_cost(rec.pattern), lu_cost(best_2dbc(P))) << P;
    EXPECT_LE(rec.cost, g2dbc_cost_bound(P));
    EXPECT_FALSE(rec.rationale.empty());
  }
}

TEST(Recommend, CholeskyAtSbcFeasibleCountsNeverWorseThanSbc) {
  // At SBC-feasible P the recommendation is SBC — unless the GCR&M search
  // finds something strictly cheaper, which the paper observes it often
  // does ("cost either similar to SBC, or even lower in many cases").
  for (const std::int64_t P : {21, 28, 32, 36}) {
    const Recommendation rec =
        recommend_pattern(P, Kernel::kCholesky, fast_options());
    EXPECT_TRUE(rec.scheme == "SBC" || rec.scheme == "GCR&M") << P;
    EXPECT_LE(rec.cost, sbc_params(P)->cost()) << P;
    if (rec.scheme == "SBC")
      EXPECT_DOUBLE_EQ(rec.cost, sbc_params(P)->cost());
  }
}

TEST(Recommend, CholeskyPicksGcrmElsewhere) {
  for (const std::int64_t P : {23, 31, 35, 39}) {
    const Recommendation rec =
        recommend_pattern(P, Kernel::kCholesky, fast_options());
    EXPECT_EQ(rec.scheme, "GCR&M") << P;
    EXPECT_EQ(rec.pattern.num_nodes(), P);
    // GCR&M must land at or below the SBC reference curve (plus slack for
    // the reduced seed count).
    EXPECT_LT(rec.cost, sbc_cost_reference(P) + 1.0);
  }
}

TEST(Recommend, PatternsAreUsable) {
  for (const std::int64_t P : {10, 23}) {
    for (const Kernel kernel : {Kernel::kLu, Kernel::kCholesky}) {
      const Recommendation rec =
          recommend_pattern(P, kernel, fast_options());
      EXPECT_TRUE(rec.pattern.validate().empty());
      EXPECT_TRUE(rec.pattern.is_balanced(1));
    }
  }
}

TEST(Recommend, RejectsBadP) {
  EXPECT_THROW(recommend_pattern(0, Kernel::kLu), std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::core
