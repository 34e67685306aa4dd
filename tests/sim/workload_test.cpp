#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "core/sbc.hpp"
#include "core/cost.hpp"
#include "core/distribution.hpp"
#include "linalg/kernels.hpp"

namespace anyblock::sim {
namespace {

MachineConfig machine_for(std::int64_t nodes) {
  MachineConfig machine;
  machine.nodes = nodes;
  return machine;
}

// The 2D task graphs: the one-layer case of the replicated builders.
Workload lu_workload(std::int64_t t, const core::Distribution& dist,
                     const MachineConfig& machine) {
  return build_lu_workload_25d(t, core::one_layer(dist), machine);
}
Workload cholesky_workload(std::int64_t t, const core::Distribution& dist,
                           const MachineConfig& machine) {
  return build_cholesky_workload_25d(t, core::one_layer(dist), machine);
}

TEST(Workload, LuTaskCount) {
  // t iterations: 1 GETRF + 2(t-1-l) TRSM + (t-1-l)^2 GEMM.
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 8, false);
  const Workload work = lu_workload(8, dist, machine_for(4));
  std::int64_t expected = 0;
  for (std::int64_t l = 0; l < 8; ++l) {
    const std::int64_t k = 8 - 1 - l;
    expected += 1 + 2 * k + k * k;
  }
  EXPECT_EQ(work.task_count(), expected);
}

TEST(Workload, CholeskyTaskCount) {
  // t iterations: 1 POTRF + (t-1-l) TRSM + (t-1-l) SYRK + C(t-1-l,2) GEMM.
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 7, true);
  const Workload work = cholesky_workload(7, dist, machine_for(4));
  std::int64_t expected = 0;
  for (std::int64_t l = 0; l < 7; ++l) {
    const std::int64_t k = 7 - 1 - l;
    expected += 1 + 2 * k + k * (k - 1) / 2;
  }
  EXPECT_EQ(work.task_count(), expected);
}

TEST(Workload, TotalFlopsMatchKernelSums) {
  const MachineConfig machine = machine_for(4);
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 6, false);
  const Workload work = lu_workload(6, dist, machine);
  double expected = 0.0;
  for (const auto& task : work.tasks) expected += machine.task_flops(task.type);
  EXPECT_DOUBLE_EQ(work.total_flops, expected);
  // And roughly 2/3 n^3 for the whole factorization.
  const double n = 6.0 * static_cast<double>(machine.tile_size);
  EXPECT_NEAR(work.total_flops / (2.0 / 3.0 * n * n * n), 1.0, 0.15);
}

TEST(Workload, MessageCountEqualsExactVolumeLu) {
  // The eager per-destination-dedup protocol is exactly what
  // exact_lu_volume counts.
  for (const auto& pattern :
       {core::make_2dbc(2, 3), core::make_2dbc(5, 1), core::make_g2dbc(7)}) {
    const std::int64_t t = 12;
    const core::PatternDistribution dist(pattern, t, false);
    const Workload work =
        lu_workload(t, dist, machine_for(pattern.num_nodes()));
    EXPECT_EQ(work.message_count(), core::exact_lu_volume(pattern, t));
  }
}

TEST(Workload, MessageCountEqualsExactVolumeCholesky) {
  for (const auto& pattern :
       {core::make_2dbc(2, 2), core::make_2dbc(3, 3), core::make_sbc(6)}) {
    const std::int64_t t = 12;
    const core::PatternDistribution dist(pattern, t, true);
    const Workload work =
        cholesky_workload(t, dist, machine_for(pattern.num_nodes()));
    EXPECT_EQ(work.message_count(), core::exact_cholesky_volume(pattern, t));
  }
}

TEST(Workload, TasksRunOnOwners) {
  const core::Pattern pattern = core::make_2dbc(2, 3);
  const std::int64_t t = 9;
  const core::PatternDistribution dist(pattern, t, false);
  const Workload work = lu_workload(t, dist, machine_for(6));
  for (const auto& task : work.tasks)
    EXPECT_EQ(task.node, dist.owner(task.i, task.j));
}

TEST(Workload, ChainSuccessorsAreOnSameTileAndNode) {
  const core::PatternDistribution dist(core::make_2dbc(2, 2), 8, false);
  const Workload work = lu_workload(8, dist, machine_for(4));
  for (const auto& task : work.tasks) {
    if (task.successor < 0) continue;
    const SimTask& next =
        work.tasks[static_cast<std::size_t>(task.successor)];
    EXPECT_EQ(task.i, next.i);
    EXPECT_EQ(task.j, next.j);
    EXPECT_EQ(task.node, next.node);
    EXPECT_EQ(next.l, task.l + 1);  // writers advance one iteration
  }
}

TEST(Workload, DepsAreConsistent) {
  // Every task's dependency count equals (has chain predecessor) + number
  // of instances listing it as a waiter.
  const core::PatternDistribution dist(core::make_2dbc(2, 3), 10, false);
  const Workload work = lu_workload(10, dist, machine_for(6));
  std::vector<std::int32_t> expected(work.tasks.size(), 0);
  for (const auto& task : work.tasks) {
    if (task.successor >= 0)
      ++expected[static_cast<std::size_t>(task.successor)];
  }
  for (const auto& instance : work.instances)
    for (const auto& group : instance.groups)
      for (const auto waiter : group.waiters)
        ++expected[static_cast<std::size_t>(waiter)];
  for (std::size_t id = 0; id < work.tasks.size(); ++id)
    EXPECT_EQ(work.tasks[id].deps, expected[id]) << "task " << id;
}

TEST(Workload, SingleNodeHasNoMessages) {
  const core::PatternDistribution dist(core::make_2dbc(1, 1), 10, false);
  EXPECT_EQ(lu_workload(10, dist, machine_for(1)).message_count(), 0);
  const core::PatternDistribution sdist(core::make_2dbc(1, 1), 10, true);
  EXPECT_EQ(cholesky_workload(10, sdist, machine_for(1)).message_count(),
            0);
}

TEST(Workload, RejectsBadGrid) {
  const core::PatternDistribution dist(core::make_2dbc(1, 1), 4, false);
  EXPECT_THROW(lu_workload(0, dist, machine_for(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::sim
