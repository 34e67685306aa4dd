// Discrete-event simulator: executes a Workload on a MachineConfig.
//
// Nodes have `workers_per_node` compute slots and a full-duplex NIC.  Ready
// tasks queue per node, ordered by a critical-path priority (earlier
// iterations first; panel factorizations ahead of solves ahead of updates)
// — the same heuristic the StarPU schedulers apply.  When a producer task
// finishes, its published tile is handed to local consumers immediately and
// sent to every remote consumer node as one point-to-point message; NIC
// transfers serialize per link (sender out-link, receiver in-link), and
// communication overlaps computation, as in the paper's asynchronous
// runtime (Section II-C).
#pragma once

#include <cstdint>
#include <vector>

#include "core/replicated.hpp"
#include "sim/machine.hpp"
#include "sim/workload.hpp"

namespace anyblock::sim {

struct NodeReport {
  double busy_seconds = 0.0;  ///< summed task durations
  std::int64_t tasks = 0;
  std::int64_t messages_sent = 0;
  double bytes_sent = 0.0;
};

struct SimReport {
  double makespan_seconds = 0.0;
  double total_flops = 0.0;
  std::int64_t tasks = 0;
  /// Application-level messages (one per logical transfer, matching the
  /// closed forms); retransmissions and duplicates count in `faults` only.
  std::int64_t messages = 0;
  std::vector<NodeReport> per_node;
  /// Injected-fault and recovery counters (all zero with a disabled plan).
  fault::FaultStats faults;
  /// Simulator events processed (task finishes + arrivals + retransmits).
  std::int64_t events = 0;
  /// Wall-clock seconds spent building the DAG representation and running
  /// the event loop (the BENCH_sim.json axes).
  double build_seconds = 0.0;
  double run_seconds = 0.0;
  /// Peak resident DAG state: the generators report their frontier (tasks
  /// satisfied but not yet ready + in-flight instances); simulate(Workload)
  /// reports the full task count, since everything stays resident.
  std::int64_t frontier_peak = 0;

  [[nodiscard]] double total_gflops() const {
    return makespan_seconds > 0 ? total_flops / makespan_seconds / 1e9 : 0.0;
  }
  [[nodiscard]] double per_node_gflops() const {
    return per_node.empty() ? 0.0
                            : total_gflops() /
                                  static_cast<double>(per_node.size());
  }
  /// Fraction of worker time spent computing (1 = perfectly busy machine).
  [[nodiscard]] double efficiency(const MachineConfig& machine) const;
};

/// Runs a materialized task graph to completion (hand-built graphs and the
/// test oracles; the kernel entry points below generate theirs on
/// demand).  The workload must reference node ids in [0, machine.nodes).
SimReport simulate(Workload workload, const MachineConfig& machine);

/// LU and Cholesky on a 2D distribution: the one-layer case of
/// simulate_lu_25d / simulate_cholesky_25d (core::one_layer).
SimReport simulate_lu(std::int64_t t, const core::Distribution& distribution,
                      const MachineConfig& machine);
SimReport simulate_cholesky(std::int64_t t,
                            const core::Distribution& distribution,
                            const MachineConfig& machine);

/// LU and Cholesky under the replicated schedule (sim/workload_25d.hpp):
/// machine.nodes must equal distribution.num_nodes() = base nodes * memory
/// factor.  One layer is the plain 2D schedule.
SimReport simulate_lu_25d(std::int64_t t,
                          const core::ReplicatedDistribution& distribution,
                          const MachineConfig& machine);
SimReport simulate_cholesky_25d(
    std::int64_t t, const core::ReplicatedDistribution& distribution,
    const MachineConfig& machine);

}  // namespace anyblock::sim
