#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "core/pattern_search.hpp"
#include "core/sbc.hpp"

namespace anyblock::sim {
namespace {

MachineConfig test_machine(std::int64_t nodes, int workers = 4) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = workers;
  machine.tile_size = 500;
  return machine;
}

core::PatternDistribution dist_for(const core::Pattern& pattern,
                                   std::int64_t t, bool symmetric) {
  return core::PatternDistribution(pattern, t, symmetric);
}

TEST(SimEngine, SingleWorkerRunsSerially) {
  // One node, one worker: makespan is exactly the sum of task durations.
  const MachineConfig machine = test_machine(1, 1);
  const auto dist = dist_for(core::make_2dbc(1, 1), 8, false);
  const Workload work =
      build_lu_workload_25d(8, core::one_layer(dist), machine);
  double serial = 0.0;
  for (const auto& task : work.tasks) serial += machine.task_seconds(task.type);
  const SimReport report = simulate(work, machine);
  EXPECT_NEAR(report.makespan_seconds, serial, serial * 1e-12);
  EXPECT_EQ(report.messages, 0);
  EXPECT_NEAR(report.efficiency(machine), 1.0, 1e-9);
}

TEST(SimEngine, MoreWorkersNeverSlower) {
  const auto dist = dist_for(core::make_2dbc(1, 1), 12, false);
  double previous = 1e300;
  for (const int workers : {1, 2, 4, 8}) {
    const MachineConfig machine = test_machine(1, workers);
    const SimReport report = simulate_lu(12, dist, machine);
    EXPECT_LE(report.makespan_seconds, previous * (1 + 1e-12));
    previous = report.makespan_seconds;
  }
}

TEST(SimEngine, CriticalPathLowerBoundHolds) {
  // Even with unlimited workers, LU cannot beat the panel critical path:
  // t GETRFs + (t-1) TRSM + (t-1) GEMM alternations.
  const MachineConfig machine = test_machine(1, 1000);
  const std::int64_t t = 10;
  const auto dist = dist_for(core::make_2dbc(1, 1), t, false);
  const SimReport report = simulate_lu(t, dist, machine);
  const double path =
      static_cast<double>(t) * machine.task_seconds(TaskType::kGetrf) +
      static_cast<double>(t - 1) * (machine.task_seconds(TaskType::kTrsm) +
                                    machine.task_seconds(TaskType::kGemm));
  EXPECT_GE(report.makespan_seconds, path * (1 - 1e-9));
}

TEST(SimEngine, DeterministicAcrossRuns) {
  const auto dist = dist_for(core::make_2dbc(2, 3), 18, false);
  const MachineConfig machine = test_machine(6);
  const SimReport a = simulate_lu(18, dist, machine);
  const SimReport b = simulate_lu(18, dist, machine);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(SimEngine, MessagesMatchWorkload) {
  const auto dist = dist_for(core::make_2dbc(2, 3), 15, false);
  const MachineConfig machine = test_machine(6);
  const Workload work =
      build_lu_workload_25d(15, core::one_layer(dist), machine);
  const std::int64_t expected = work.message_count();
  const SimReport report = simulate(work, machine);
  EXPECT_EQ(report.messages, expected);
  std::int64_t per_node_total = 0;
  for (const auto& node : report.per_node)
    per_node_total += node.messages_sent;
  EXPECT_EQ(per_node_total, expected);
}

TEST(SimEngine, SlowNetworkHurts) {
  const auto dist = dist_for(core::make_2dbc(2, 3), 15, false);
  MachineConfig fast = test_machine(6);
  MachineConfig slow = test_machine(6);
  slow.link_bandwidth_gbps = 0.05;
  const double fast_time = simulate_lu(15, dist, fast).makespan_seconds;
  const double slow_time = simulate_lu(15, dist, slow).makespan_seconds;
  EXPECT_GT(slow_time, fast_time * 1.5);
}

TEST(SimEngine, ThroughputBelowMachinePeak) {
  const auto dist = dist_for(core::make_2dbc(2, 2), 16, false);
  const MachineConfig machine = test_machine(4);
  const SimReport report = simulate_lu(16, dist, machine);
  EXPECT_GT(report.total_gflops(), 0.0);
  EXPECT_LE(report.total_gflops(), machine.peak_gflops() * (1 + 1e-9));
  EXPECT_LE(report.efficiency(machine), 1.0 + 1e-9);
}

TEST(SimEngine, HeadlineLuComparisonP23) {
  // Fig. 5's qualitative claim, reproduced in miniature: with 23 nodes,
  // G-2DBC (using all 23) out-performs the forced 23x1 2DBC grid.
  const std::int64_t t = 46;
  const MachineConfig machine = test_machine(23, 4);
  const double g2dbc =
      simulate_lu(t, dist_for(core::make_g2dbc(23), t, false), machine)
          .total_gflops();
  const double bc23x1 =
      simulate_lu(t, dist_for(core::make_2dbc(23, 1), t, false), machine)
          .total_gflops();
  EXPECT_GT(g2dbc, bc23x1);
}

TEST(SimEngine, CholeskySbcBeatsSquare2dbcPerNode) {
  // SC'22 claim inherited by the paper: SBC (21 nodes) reaches higher
  // per-node throughput than the 5x5 2DBC (25 nodes) on Cholesky.
  const std::int64_t t = 45;
  const MachineConfig m21 = test_machine(21, 4);
  const MachineConfig m25 = test_machine(25, 4);
  const SimReport sbc =
      simulate_cholesky(t, dist_for(core::make_sbc(21), t, true), m21);
  const SimReport bc =
      simulate_cholesky(t, dist_for(core::make_2dbc(5, 5), t, true), m25);
  EXPECT_GT(sbc.per_node_gflops(), bc.per_node_gflops());
}

TEST(SimEngine, CholeskyWorkloadRunsWithGcrmPattern) {
  core::GcrmSearchOptions options;
  options.seeds = 5;
  const core::GcrmSearchResult search = core::gcrm_search(23, options);
  ASSERT_TRUE(search.found);
  const std::int64_t t = 30;
  const MachineConfig machine = test_machine(23, 4);
  const SimReport report =
      simulate_cholesky(t, dist_for(search.best, t, true), machine);
  EXPECT_GT(report.total_gflops(), 0.0);
  EXPECT_EQ(report.tasks,
            build_cholesky_workload_25d(
                t, core::one_layer(dist_for(search.best, t, true)), machine)
                .task_count());
}

TEST(SimEngine, RejectsForeignNodeIds) {
  // A distribution naming node 5 cannot run on a 2-node machine.
  const auto dist = dist_for(core::make_2dbc(2, 3), 10, false);
  const MachineConfig machine = test_machine(2);
  EXPECT_THROW(simulate_lu(10, dist, machine), std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::sim
