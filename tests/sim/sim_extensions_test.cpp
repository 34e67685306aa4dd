// Tests for the simulator extensions: heterogeneous node speeds and the
// FIFO-vs-priority scheduling ablation.
#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "sim/engine.hpp"

namespace anyblock::sim {
namespace {

MachineConfig machine_for(std::int64_t nodes, int workers = 4) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = workers;
  return machine;
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
