// Large-P asymptotics: at P in {1024, 2048, 4096} the distribution
// families must track their closed-form costs — 2*sqrt(P) for (G-)2DBC on
// LU, sqrt(2P) for SBC and sqrt(3P/2) for GCR&M on the symmetric kernels —
// and the implicit simulator must actually run at these node counts with
// per-node communication volumes matching the same forms.  This is the
// paper's Fig. 4/Fig. 7 regime, far past the materialized engine's comfort
// zone.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/pattern_search.hpp"
#include "core/sbc.hpp"
#include "sim/engine.hpp"

namespace anyblock::sim {
namespace {

constexpr std::int64_t kNodeCounts[] = {1024, 2048, 4096};

TEST(LargeP, G2dbcLuCostTracksTwoSqrtP) {
  for (const std::int64_t P : kNodeCounts) {
    const core::Pattern pattern = core::make_g2dbc(P);
    const double cost = core::lu_cost(pattern);
    // Lemma 2: between the square-grid optimum and the G-2DBC bound.
    EXPECT_GE(cost, core::lu_cost_reference(P) * (1.0 - 1e-9)) << P;
    EXPECT_LE(cost, core::g2dbc_cost_bound(P) * (1.0 + 1e-9)) << P;
  }
}

TEST(LargeP, SbcCholeskyCostTracksSqrtTwoP) {
  for (const std::int64_t P : kNodeCounts) {
    // None of these P are exactly SBC-feasible; take the paper's fallback
    // (largest feasible P' <= P) and check against its own closed form.
    const core::SbcParams params = core::best_sbc_at_most(P);
    EXPECT_GT(params.P, P * 9 / 10) << P;  // the family is dense enough
    const double cost = core::cholesky_cost(core::make_sbc(params));
    EXPECT_NEAR(cost, core::sbc_cost_reference(params.P),
                0.05 * core::sbc_cost_reference(params.P))
        << P;
  }
}

TEST(LargeP, GcrmCholeskyCostTracksSqrtThreeHalvesP) {
  // A thin search (few sizes, few seeds) lands within ~25% of the
  // sqrt(3P/2) limit — and never below it; the paper's full 100-seed
  // protocol tightens the gap but is a bench-scale run.
  for (const std::int64_t P : kNodeCounts) {
    core::GcrmSearchOptions options;
    options.seeds = 2;
    options.max_r_factor = 2.5;
    const core::GcrmSearchResult search = core::gcrm_search(P, options);
    ASSERT_TRUE(search.found) << P;
    const double limit = core::gcrm_cost_limit(P);
    EXPECT_GE(search.best_cost, limit * (1.0 - 1e-9)) << P;
    EXPECT_LE(search.best_cost, limit * 1.25) << P;
  }
}

TEST(LargeP, ImplicitSimulationMatchesExactVolumesAtP1024) {
  // End to end at P = 1024: the implicit engine completes, sends exactly
  // the owner-computes volume, and the per-node volume sits within edge
  // effects of the closed form T(G) * t(t+1)/2 / P.
  const std::int64_t P = 1024;
  const std::int64_t t = 128;
  const core::SbcParams params = core::best_sbc_at_most(P);
  const core::Pattern pattern = core::make_sbc(params);
  const core::PatternDistribution dist(pattern, t, true);
  MachineConfig machine;
  machine.nodes = params.P;
  machine.workers_per_node = 2;
  const SimReport report = simulate_cholesky(t, dist, machine);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_EQ(report.messages, core::exact_cholesky_volume(pattern, t));

  const double per_node = static_cast<double>(report.messages) /
                          static_cast<double>(params.P);
  const double z_bar = core::cholesky_cost(pattern);
  const double predicted = static_cast<double>(t) *
                           static_cast<double>(t + 1) / 2.0 * (z_bar - 1.0) /
                           static_cast<double>(params.P);
  // Eq. 2 ignores domain shrinking in the last iterations; 15% covers it
  // at t = 128.
  EXPECT_NEAR(per_node, predicted, 0.15 * predicted);
}

TEST(LargeP, ImplicitLuRunsAtP4096) {
  // The acceptance-criterion shape in miniature: G-2DBC on 4096 nodes,
  // moderate grid.  A materialized graph would hold ~11M tasks here; the
  // generator keeps only the frontier.
  const std::int64_t P = 4096;
  const std::int64_t t = 160;
  const core::Pattern pattern = core::make_g2dbc(P);
  const core::PatternDistribution dist(pattern, t, false);
  MachineConfig machine;
  machine.nodes = P;
  machine.workers_per_node = 2;
  const SimReport report = simulate_lu(t, dist, machine);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_EQ(report.messages, core::exact_lu_volume(pattern, t));
  EXPECT_LT(report.frontier_peak, report.tasks);

  const double per_node = static_cast<double>(report.messages) /
                          static_cast<double>(P);
  const double predicted = core::predicted_lu_volume(pattern, t) /
                           static_cast<double>(P);
  EXPECT_NEAR(per_node, predicted, 0.20 * predicted);
}

}  // namespace
}  // namespace anyblock::sim
