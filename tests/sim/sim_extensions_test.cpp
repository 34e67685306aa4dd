// Tests for the simulator extensions: the SYRK workload, heterogeneous
// node speeds, and the FIFO-vs-priority scheduling ablation.
#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/cost.hpp"
#include "core/sbc.hpp"
#include "sim/engine.hpp"
#include "sim/oracle/materialized_workload.hpp"

namespace anyblock::sim {
namespace {

MachineConfig machine_for(std::int64_t nodes, int workers = 4) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = workers;
  return machine;
}

TEST(SyrkWorkload, TaskAndMessageCounts) {
  const core::Pattern pattern = core::make_sbc(6);  // 4x4
  const std::int64_t t = 12;
  const std::int64_t k = 5;
  const core::PatternDistribution dist_c(pattern, t, true);
  const core::PatternDistribution dist_a(pattern, t, false);
  const Workload work =
      build_syrk_workload(t, k, dist_c, dist_a, machine_for(6));
  // t*k loads + k * (t SYRK + t(t-1)/2 GEMM).
  EXPECT_EQ(work.task_count(), t * k + k * (t + t * (t - 1) / 2));
  EXPECT_EQ(message_count(work), core::exact_syrk_volume(pattern, t, k));
}

TEST(SyrkWorkload, LoadTasksAreFree) {
  const core::Pattern pattern = core::make_2dbc(2, 2);
  const core::PatternDistribution dist_c(pattern, 6, true);
  const core::PatternDistribution dist_a(pattern, 6, false);
  const MachineConfig machine = machine_for(4);
  const Workload work = build_syrk_workload(6, 3, dist_c, dist_a, machine);
  double expected_flops = 0.0;
  for (const auto& task : work.tasks) {
    if (task.type == TaskType::kLoad) continue;
    expected_flops += machine.task_flops(task.type);
  }
  EXPECT_DOUBLE_EQ(work.total_flops, expected_flops);
  EXPECT_DOUBLE_EQ(machine.task_seconds(TaskType::kLoad), 0.0);
}

TEST(SyrkWorkload, SimulationCompletesAndMessagesMatch) {
  const core::Pattern pattern = core::make_sbc(6);
  const std::int64_t t = 12;
  const std::int64_t k = 5;
  const core::PatternDistribution dist_c(pattern, t, true);
  const core::PatternDistribution dist_a(pattern, t, false);
  const MachineConfig machine = machine_for(6);
  const SimReport report = simulate_syrk(t, k, dist_c, dist_a, machine);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_EQ(report.messages, core::exact_syrk_volume(pattern, t, k));
  EXPECT_GT(report.total_gflops(), 0.0);
}

TEST(SyrkWorkload, SbcBeatsSquare2dbcPerNode) {
  // The original SBC claim was made for SYRK as much as for Cholesky.
  const std::int64_t t = 32;
  const std::int64_t k = 8;
  const core::Pattern sbc = core::make_sbc(21);
  const core::Pattern bc = core::make_2dbc(5, 5);
  const core::PatternDistribution sbc_c(sbc, t, true);
  const core::PatternDistribution sbc_a(sbc, t, false);
  const core::PatternDistribution bc_c(bc, t, true);
  const core::PatternDistribution bc_a(bc, t, false);
  const SimReport sbc_report =
      simulate_syrk(t, k, sbc_c, sbc_a, machine_for(21));
  const SimReport bc_report = simulate_syrk(t, k, bc_c, bc_a, machine_for(25));
  EXPECT_LT(sbc_report.messages, bc_report.messages);
}

TEST(Heterogeneity, FasterNodesShortenMakespan) {
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 16, false);
  MachineConfig uniform = machine_for(4);
  MachineConfig boosted = machine_for(4);
  boosted.node_speed = {2.0, 2.0, 2.0, 2.0};
  const double base = simulate_lu(16, dist, uniform).makespan_seconds;
  const double fast = simulate_lu(16, dist, boosted).makespan_seconds;
  EXPECT_LT(fast, base);
  EXPECT_GT(fast, base / 2.5);  // comm does not speed up
}

TEST(Heterogeneity, OneSlowNodeDragsTheRun) {
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 16, false);
  MachineConfig skewed = machine_for(4);
  skewed.node_speed = {1.0, 1.0, 1.0, 0.25};
  const double base =
      simulate_lu(16, dist, machine_for(4)).makespan_seconds;
  const double slow = simulate_lu(16, dist, skewed).makespan_seconds;
  // A balanced distribution cannot hide a 4x slower node.
  EXPECT_GT(slow, base * 1.5);
}

TEST(Heterogeneity, RejectsBadSpeedVectors) {
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 8, false);
  MachineConfig wrong_size = machine_for(4);
  wrong_size.node_speed = {1.0, 1.0};
  EXPECT_THROW(simulate_lu(8, dist, wrong_size), std::invalid_argument);
  MachineConfig zero_speed = machine_for(4);
  zero_speed.node_speed = {1.0, 1.0, 1.0, 0.0};
  EXPECT_THROW(simulate_lu(8, dist, zero_speed), std::invalid_argument);
}

TEST(SchedulerAblation, PriorityNeverMuchWorseAndOftenBetter) {
  // Critical-path priorities should beat (or tie) FIFO on the LU panel
  // chain; the ablation knob must at least change the schedule.
  const core::PatternDistribution dist(core::make_2dbc(2, 3), 36, false);
  MachineConfig prio = machine_for(6, 2);
  MachineConfig fifo = machine_for(6, 2);
  fifo.priority_scheduling = false;
  const double with_prio = simulate_lu(36, dist, prio).makespan_seconds;
  const double with_fifo = simulate_lu(36, dist, fifo).makespan_seconds;
  EXPECT_LE(with_prio, with_fifo * 1.02);
}

TEST(SchedulerAblation, FifoIsDeterministicToo) {
  const core::PatternDistribution dist(core::make_2dbc(2, 3), 24, false);
  MachineConfig fifo = machine_for(6, 2);
  fifo.priority_scheduling = false;
  const double a = simulate_lu(24, dist, fifo).makespan_seconds;
  const double b = simulate_lu(24, dist, fifo).makespan_seconds;
  EXPECT_DOUBLE_EQ(a, b);
}

}  // namespace
}  // namespace anyblock::sim
