// Analytic oracles for single model terms of the simulator: cases small
// enough to solve by hand, so each test knows the right answer instead of
// comparing the simulator with itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/block_cyclic.hpp"
#include "core/replicated.hpp"
#include "linalg/kernels.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace anyblock::sim {
namespace {

/// A producer on node 0 publishes one tile; one task on node 1 consumes it.
Workload two_node_transfer() {
  SimTask producer{TaskType::kGetrf, 0, 0, 0, /*node=*/0, /*deps=*/0};
  producer.publishes = 0;
  const SimTask consumer{TaskType::kTrsm, 0, 1, 0, /*node=*/1, /*deps=*/1};
  Workload work;
  work.tasks = {producer, consumer};
  work.instances = {{/*producer_node=*/0, {{/*node=*/1, {1}}}}};
  return work;
}

/// Seconds one task of `flops` takes on one worker of `machine`, from the
/// machine's raw fields.
double seconds_of(const MachineConfig& machine, double flops) {
  return flops / (machine.core_gflops * 1e9);
}

TEST(SimOracle, OneTransferCostsLatencyPlusBytesOverBandwidth) {
  // The consumer starts when the tile lands: the producer's run, then the
  // wire time 8 nb^2 / beta, then the latency alpha, then its own run.
  MachineConfig machine;
  machine.nodes = 2;
  machine.collective.algorithm = comm::Algorithm::kEagerP2P;
  const double nb = static_cast<double>(machine.tile_size);
  const double wire = 8.0 * nb * nb / (machine.link_bandwidth_gbps * 1e9);
  const double alpha = machine.link_latency_us * 1e-6;
  const double expected =
      seconds_of(machine, linalg::getrf_flops(machine.tile_size)) + wire +
      alpha + seconds_of(machine, linalg::trsm_flops(machine.tile_size));
  const SimReport report = simulate(two_node_transfer(), machine);
  EXPECT_EQ(report.messages, 1);
  EXPECT_EQ(report.makespan_seconds, expected);
}

TEST(SimOracle, LuOnOneNodeRunsItsCriticalChain) {
  // LU at t = 2 on one node: GETRF(0), the two TRSMs side by side, the one
  // GEMM, GETRF(1).  Nothing communicates, so the makespan is that chain.
  constexpr std::int64_t t = 2;
  const core::PatternDistribution dist(core::make_2dbc(1, 1), t, false);
  MachineConfig machine;
  machine.nodes = 1;
  const std::int64_t nb = machine.tile_size;
  const double expected = seconds_of(machine, linalg::getrf_flops(nb)) +
                          seconds_of(machine, linalg::trsm_flops(nb)) +
                          seconds_of(machine, linalg::gemm_flops(nb)) +
                          seconds_of(machine, linalg::getrf_flops(nb));
  const SimReport report = simulate_lu(t, dist, machine);
  EXPECT_EQ(report.messages, 0);
  EXPECT_EQ(report.makespan_seconds, expected);
}

TEST(SimOracle, TotalFlopsIsTheTaskCountSum) {
  // Right-looking tiled LU runs t GETRF, t(t-1) TRSM and t(t-1)(2t-1)/6
  // GEMM; Cholesky runs t POTRF, t(t-1)/2 TRSM, t(t-1)/2 SYRK and
  // t(t-1)(t-2)/6 GEMM.  Priced with the kernels' own flop counts.
  MachineConfig machine;
  machine.nodes = 4;
  machine.tile_size = 64;
  const std::int64_t nb = machine.tile_size;
  for (const std::int64_t t : {1, 2, 3, 7}) {
    SCOPED_TRACE("t = " + std::to_string(t));
    const double tiles = static_cast<double>(t);
    const double lu = tiles * linalg::getrf_flops(nb) +
                      tiles * (tiles - 1) * linalg::trsm_flops(nb) +
                      tiles * (tiles - 1) * (2 * tiles - 1) / 6 *
                          linalg::gemm_flops(nb);
    const double cholesky =
        tiles * linalg::potrf_flops(nb) +
        tiles * (tiles - 1) / 2 * linalg::trsm_flops(nb) +
        tiles * (tiles - 1) / 2 * linalg::syrk_flops(nb) +
        tiles * (tiles - 1) * (tiles - 2) / 6 * linalg::gemm_flops(nb);
    const core::PatternDistribution lu_dist(core::make_2dbc(2, 2), t, false);
    const core::PatternDistribution chol_dist(core::make_2dbc(2, 2), t, true);
    EXPECT_NEAR(simulate_lu(t, lu_dist, machine).total_flops, lu,
                1e-12 * lu);
    EXPECT_NEAR(simulate_cholesky(t, chol_dist, machine).total_flops,
                cholesky, 1e-12 * cholesky);
  }
}

constexpr double kTimeoutMs = 50.0;

/// Makespan of the transfer when its first `drops` transmissions are lost.
double makespan_with_drops(std::int64_t drops) {
  MachineConfig machine;
  machine.nodes = 2;
  machine.collective.algorithm = comm::Algorithm::kEagerP2P;
  machine.faults.drop = 1.0;
  machine.faults.max_drops_per_message = drops;
  machine.faults.recv_timeout_ms = kTimeoutMs;
  const SimReport report = simulate(two_node_transfer(), machine);
  EXPECT_EQ(report.faults.drops, drops);
  EXPECT_EQ(report.faults.retries, drops);
  EXPECT_EQ(report.messages, 1);
  return report.makespan_seconds;
}

TEST(SimOracle, RetransmitBackoffDoublesPerDrop) {
  // Attempt a waits timeout * 2^a after its wire time and latency, so with
  // k drops the makespan is
  //   m_k = producer + consumer + (k + 1) (wire + latency) + T (2^k - 1).
  // The second difference (m2 - m1) - (m1 - m0) leaves T alone: no wire
  // time, latency or task duration survives.  Without the backoff it is 0.
  const double m0 = makespan_with_drops(0);
  const double m1 = makespan_with_drops(1);
  const double m2 = makespan_with_drops(2);
  EXPECT_NEAR((m2 - m1) - (m1 - m0), kTimeoutMs * 1e-3, 1e-12);
}

/// total_flops of LU or Cholesky on t = 4 tiles over a 2-node base grid
/// stacked on `layers` layers.
double total_flops(bool symmetric, std::int64_t layers) {
  constexpr std::int64_t t = 4;
  const core::ReplicatedDistribution dist(
      std::make_shared<core::PatternDistribution>(core::make_2dbc(2, 1), t,
                                                  symmetric),
      layers);
  MachineConfig machine;
  machine.nodes = dist.num_nodes();
  machine.tile_size = 500;
  const SimReport report = symmetric ? simulate_cholesky_25d(t, dist, machine)
                                     : simulate_lu_25d(t, dist, machine);
  return report.total_flops;
}

TEST(SimOracle, EachReduceAddsOneTileOfFlops) {
  // Two layers add one reduce per finalized tile of every iteration l >= 1
  // (one remote layer each), and a reduce adds one partial tile: tile^2
  // flops.  At t = 4, LU finalizes 5 + 3 + 1 = 9 tiles in iterations 1-3
  // and Cholesky 3 + 2 + 1 = 6.  Flush tasks compute nothing.
  const double tile_squared = 500.0 * 500.0;
  EXPECT_NEAR(total_flops(false, 2) - total_flops(false, 1),
              9 * tile_squared, 1e-3);
  EXPECT_NEAR(total_flops(true, 2) - total_flops(true, 1), 6 * tile_squared,
              1e-3);
}

}  // namespace
}  // namespace anyblock::sim
