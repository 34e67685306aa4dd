// Materialized task-DAG builders for the cluster simulator.
//
// The right-looking factorizations have a fixed dependency structure, so
// instead of a generic DAG the builder emits:
//   * a flat task table (type, iteration, tile, owner node) with a
//     precomputed dependency count,
//   * per-tile *chains* (the sequence of tasks writing a tile runs on its
//     owner, so chain edges never communicate), and
//   * published *instances*: each panel tile is produced once (by
//     GETRF/POTRF/TRSM) and then consumed by update tasks; consumers are
//     grouped by node, one tile message per remote group (eager sends with
//     per-destination dedup — the communication scheme of Fig. 2).
#pragma once

#include <cstdint>
#include <vector>

#include "core/distribution.hpp"
#include "core/replicated.hpp"
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

/// A published tile (exactly one per matrix tile in these algorithms).
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
  /// Tile messages the eager protocol will send (remote groups).
  [[nodiscard]] std::int64_t message_count() const;
};

/// Builds the LU task graph for a t x t tile matrix.  At one layer this is
/// the 2D right-looking schedule; with c > 1 layers it is the 2.5D schedule
/// of sim/workload_25d.hpp (flush and reduce blocks ahead of each
/// iteration's panel).
Workload build_lu_workload_25d(std::int64_t t,
                               const core::ReplicatedDistribution& distribution,
                               const MachineConfig& machine);

/// Builds the Cholesky (lower) task graph; same layering as LU.
Workload build_cholesky_workload_25d(
    std::int64_t t, const core::ReplicatedDistribution& distribution,
    const MachineConfig& machine);

/// Builds the SYRK task graph C -= A*A^T for C of t x t tiles (lower,
/// owned per `dist_c`) and A of t x k tiles (owned per `dist_a`, column l
/// mapped through column l mod t).  A tiles enter as zero-cost kLoad tasks
/// so their broadcast along C colrows is charged to the network like any
/// published tile.
Workload build_syrk_workload(std::int64_t t, std::int64_t k,
                             const core::Distribution& dist_c,
                             const core::Distribution& dist_a,
                             const MachineConfig& machine);

}  // namespace anyblock::sim
