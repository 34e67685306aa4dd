// The generators' dense frontier (ImplicitFrontier, sim/pool.hpp
// BlockTable): per-iteration dependency blocks filled from the closed
// forms, and per-iteration instance slots.
//
//  * fill_deps(l) reproduces the materialized builders' dependency counts
//    (tests/sim/oracle/) for every ordinal of every block, for LU and
//    Cholesky at several layer counts.
//  * Driving a whole DAG through satisfy / publish / release leaves no
//    live frontier entry and no block behind, whatever order the ready
//    tasks run in.
//  * An instance that is not in flight (never published, released, or in
//    a recycled block) is rejected with std::logic_error.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distribution.hpp"
#include "core/g2dbc.hpp"
#include "core/replicated.hpp"
#include "sim/oracle/materialized_workload.hpp"
#include "sim/workload_25d.hpp"

namespace anyblock::sim {
namespace {

core::ReplicatedDistribution stacked(std::int64_t t, bool symmetric,
                                     std::int64_t layers) {
  return core::ReplicatedDistribution(
      std::make_shared<core::PatternDistribution>(core::make_g2dbc(5), t,
                                                  symmetric),
      layers);
}

/// Every ordinal: the blocks cover [0, task_count), and inside a block the
/// block's fill equals the materialized builder's dependency count.
template <class Model>
void expect_fill_matches_builder(const Model& model, const Workload& work) {
  ASSERT_GE(model.iterations(), 1);
  ASSERT_EQ(model.task_count(), work.task_count());
  const auto deps = [&](std::int64_t id) {
    return work.tasks[static_cast<std::size_t>(id)].deps;
  };
  ASSERT_EQ(model.iteration_begin(0), 0);
  ASSERT_EQ(model.iteration_begin(model.iterations()), model.task_count());
  std::vector<std::uint8_t> counts;
  for (std::int64_t l = 0; l < model.iterations(); ++l) {
    const std::int64_t begin = model.iteration_begin(l);
    const std::int64_t end = model.iteration_begin(l + 1);
    ASSERT_LE(begin, end) << l;
    counts.clear();
    model.fill_deps(l, counts);
    ASSERT_EQ(static_cast<std::int64_t>(counts.size()), end - begin) << l;
    for (std::int64_t id = begin; id < end; ++id) {
      EXPECT_EQ(model.iteration_of(id), l) << id;
      EXPECT_EQ(counts[static_cast<std::size_t>(id - begin)], deps(id))
          << "l = " << l << ", id = " << id;
    }
  }
}

TEST(DenseFrontier, BlockFillEqualsInitialDepsForEveryOrdinal) {
  for (const std::int64_t layers : {1, 2, 4}) {
    for (const std::int64_t t : {1, 2, 5, 8}) {
      MachineConfig machine;
      machine.nodes = 5 * layers;
      const core::ReplicatedDistribution lu = stacked(t, false, layers);
      const core::ReplicatedDistribution chol = stacked(t, true, layers);
      SCOPED_TRACE("c = " + std::to_string(layers) +
                   ", t = " + std::to_string(t));
      expect_fill_matches_builder(
          Implicit25dWorkload(SimKernel::kLu, t, lu, machine),
          build_lu_workload_25d(t, lu, machine));
      expect_fill_matches_builder(
          Implicit25dWorkload(SimKernel::kCholesky, t, chol, machine),
          build_cholesky_workload_25d(t, chol, machine));
    }
  }
}

/// Runs the whole DAG through the model, popping a random ready task each
/// step: chain successor, then every consumer of the published instance,
/// then the instance's release.  Returns the number of tasks run.
template <class Model>
std::int64_t run_in_random_order(Model& model, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::int64_t> ready;
  model.for_each_initially_ready(
      [&](std::int64_t id) { ready.push_back(id); });
  std::int64_t ran = 0;
  while (!ready.empty()) {
    const std::size_t pick = std::uniform_int_distribution<std::size_t>(
        0, ready.size() - 1)(rng);
    const std::int64_t id = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    ++ran;
    const TaskView task = model.task(id);
    if (task.successor >= 0 && model.satisfy(task.successor))
      ready.push_back(task.successor);
    if (task.publishes < 0) continue;
    const auto handle = model.publish(task.publishes, task);
    for (std::int64_t g = 0; g < Model::group_count(handle); ++g) {
      Model::for_each_waiter(handle, g, [&](std::int64_t waiter) {
        if (model.satisfy(waiter)) ready.push_back(waiter);
      });
    }
    model.release(task.publishes);
    EXPECT_THROW((void)model.instance(task.publishes), std::logic_error);
  }
  return ran;
}

template <class Model>
void expect_drains(Model& model) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::int64_t ran = run_in_random_order(model, seed);
    EXPECT_EQ(ran, model.task_count()) << seed;
    EXPECT_EQ(model.frontier_size(), 0) << seed;
    EXPECT_EQ(model.live_blocks(), 0) << seed;
  }
  EXPECT_GT(model.frontier_peak(), 0);
}

TEST(DenseFrontier, FullRunReturnsEveryBlock) {
  for (const std::int64_t layers : {1, 2, 4}) {
    const std::int64_t t = 9;
    MachineConfig machine;
    machine.nodes = 5 * layers;
    const core::ReplicatedDistribution lu = stacked(t, false, layers);
    const core::ReplicatedDistribution chol = stacked(t, true, layers);
    SCOPED_TRACE("c = " + std::to_string(layers));
    Implicit25dWorkload lu_model(SimKernel::kLu, t, lu, machine);
    expect_drains(lu_model);
    Implicit25dWorkload chol_model(SimKernel::kCholesky, t, chol, machine);
    expect_drains(chol_model);
  }
}

TEST(DenseFrontier, InstanceOutOfFlightThrows) {
  const std::int64_t t = 4;
  MachineConfig machine;
  machine.nodes = 5;
  const core::ReplicatedDistribution dist = stacked(t, false, 1);
  Implicit25dWorkload model(SimKernel::kLu, t, dist, machine);
  const TaskView getrf = model.task(0);
  ASSERT_EQ(getrf.publishes, 0);
  // Never published: neither its block nor its slot exists yet.
  EXPECT_THROW((void)model.instance(0), std::logic_error);
  EXPECT_THROW(model.release(0), std::logic_error);
  EXPECT_THROW((void)model.instance(-1), std::logic_error);
  EXPECT_THROW((void)model.instance(model.instance_count()), std::logic_error);

  // Two instances of iteration 0 in flight: the released one throws while
  // its block is still open for the other...
  const auto handle = model.publish(0, getrf);
  EXPECT_EQ(model.instance(0), handle);
  const TaskView trsm = model.task(1);
  ASSERT_EQ(trsm.publishes, 1);
  model.publish(1, trsm);
  model.release(0);
  EXPECT_THROW((void)model.instance(0), std::logic_error);
  EXPECT_THROW(model.release(0), std::logic_error);
  EXPECT_NO_THROW((void)model.instance(1));
  model.release(1);
  EXPECT_EQ(model.live_blocks(), 1);

  // ...and once every instance of iteration 0 (the GETRF and its six
  // TRSMs) has been released, its block goes back to the spare list.
  for (std::int64_t id = 2; id < 7; ++id) {
    const TaskView task = model.task(id);
    ASSERT_EQ(task.publishes, id);
    model.publish(id, task);
    model.release(id);
  }
  EXPECT_EQ(model.live_blocks(), 0);
  for (std::int64_t instance = 0; instance < 7; ++instance)
    EXPECT_THROW((void)model.instance(instance), std::logic_error);

  // Iteration 1 reuses the spare block, refilled: only what it publishes
  // is in flight.
  const TaskView next = model.task(model.iteration_begin(1));
  ASSERT_EQ(next.publishes, 7);
  model.publish(7, next);
  EXPECT_EQ(model.live_blocks(), 1);
  EXPECT_NO_THROW((void)model.instance(7));
  for (std::int64_t instance = 8; instance < 12; ++instance)
    EXPECT_THROW((void)model.instance(instance), std::logic_error);
}

}  // namespace
}  // namespace anyblock::sim
