// Test oracles for the implicit task-DAG generators: materialized task
// graphs.
//
// Each build_* function emits the whole task graph up front as a
// sim::Workload, in the construction order whose ordinals the implicit
// generators (Implicit25dWorkload, ImplicitWorkload) reproduce from closed
// forms.
// Run through sim::simulate, a built graph must simulate the same
// trajectory as the generator does (tests/sim/equivalence*_test.cpp), and
// the structure tests compare the two task for task.  The simulator itself
// only runs the generators.
#pragma once

#include <cstdint>

#include "core/distribution.hpp"
#include "core/replicated.hpp"
#include "sim/machine.hpp"
#include "sim/workload.hpp"

namespace anyblock::sim {

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

/// Tile messages the eager protocol will send for `work` (remote groups).
[[nodiscard]] std::int64_t message_count(const Workload& work);

}  // namespace anyblock::sim
