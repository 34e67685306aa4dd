// Materialized task graph: the representation sim::simulate runs.
//
// The simulator generates its LU and Cholesky graphs implicitly
// (sim/workload_25d.hpp).  A Workload holds a graph in full instead, for
// hand-built cases and for the test oracles (tests/sim/oracle/) that check
// the generator.  It is:
//   * a flat task table (type, iteration, tile, owner node) with a
//     precomputed dependency count,
//   * per-tile *chains* (the sequence of tasks writing a tile runs on its
//     owner, so chain edges never communicate), and
//   * published *instances*: each published tile is consumed by later
//     tasks; consumers are grouped by node, one tile message per remote
//     group (eager sends with per-destination dedup — the communication
//     scheme of Fig. 2).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace anyblock::sim {

/// Task and instance ids are 64-bit throughout: LU at t >= ~1700 already
/// has more than INT32_MAX tasks, and the implicit generator hands out the
/// same ordinals for grids far past that (see implicit_workload.hpp).
struct SimTask {
  TaskType type;
  std::int32_t l;  ///< iteration
  std::int32_t i;  ///< tile row
  std::int32_t j;  ///< tile column
  std::int32_t node;
  std::int32_t deps;            ///< unmet dependencies at start
  std::int64_t successor = -1;  ///< next task writing the same tile
  std::int64_t publishes = -1;  ///< instance produced, if any
};

/// Consumers of one published tile on one node.
struct InstanceGroup {
  std::int32_t node;
  std::vector<std::int64_t> waiters;  ///< task ids unblocked by availability
};

/// A published tile and the nodes that consume it.
struct Instance {
  std::int32_t producer_node;
  std::vector<InstanceGroup> groups;
};

struct Workload {
  std::vector<SimTask> tasks;
  std::vector<Instance> instances;
  double total_flops = 0.0;

  [[nodiscard]] std::int64_t task_count() const {
    return static_cast<std::int64_t>(tasks.size());
  }
};

}  // namespace anyblock::sim
