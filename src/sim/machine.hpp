// Machine model for the cluster simulator.
//
// Stands in for the paper's testbed: 44 nodes x 36-core Intel Xeon Skylake
// 6240, 100 Gb/s OmniPath, one MPI process per node, one core reserved for
// the StarPU scheduler and one for MPI (Section IV-D) — hence the default
// of 34 workers.  Kernel durations derive from exact flop counts and a
// per-core effective rate; tile transfers from a full-duplex
// latency/bandwidth link per node.  Absolute numbers are calibration, the
// comparisons between distributions are emergent (see DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/config.hpp"
#include "fault/fault.hpp"

namespace anyblock::obs {
class Recorder;
}

namespace anyblock::sim {

/// The tasks of the LU and Cholesky DAGs: one tile kernel each (kSyrk and
/// kGemm are the trailing updates).  kFlush and kReduce are 2.5D-only: a
/// flush publishes a remote layer's partial sum toward the tile's home
/// replica (zero compute); a reduce adds one received partial into the
/// home tile (tile_size^2 flops).  Neither exists at memory factor c = 1.
enum class TaskType : std::uint8_t {
  kGetrf,
  kPotrf,
  kTrsm,
  kGemm,
  kSyrk,
  kFlush,
  kReduce
};

/// The implicit generator is the simulator's only task-DAG source; these
/// names are vestigial.  The benchmark (benchmark/src/sim_workload.cpp)
/// still compiles against WorkloadMode, choose_workload_mode,
/// estimated_task_count and MachineConfig::workload_mode, and passes
/// --workload-mode auto|implicit to the CLI; a later change to the
/// benchmark removes them.  Nothing in the simulator reads the field.
enum class WorkloadMode : std::uint8_t { kImplicit };

/// Estimated task count of a t-tile factorization (the cubic term
/// dominates).  Kept for the benchmark; see WorkloadMode.
[[nodiscard]] std::int64_t estimated_task_count(bool symmetric,
                                               std::int64_t tiles);

/// Parses "auto" | "implicit", both of which name the implicit generator.
/// Throws std::invalid_argument on anything else, "materialized" included.
[[nodiscard]] WorkloadMode choose_workload_mode(const std::string& name,
                                               std::int64_t estimated_tasks);

struct MachineConfig {
  std::int64_t nodes = 1;
  /// Compute workers per node (cores minus scheduler and MPI cores).
  int workers_per_node = 34;
  /// Effective per-core double-precision rate on tile kernels (GFlop/s).
  double core_gflops = 55.0;
  /// Per-node full-duplex NIC bandwidth (GB/s); 100 Gb/s OmniPath = 12.5.
  double link_bandwidth_gbps = 12.5;
  /// One-way message latency (microseconds).
  double link_latency_us = 1.5;
  /// Tile side in matrix elements (paper: 500).
  std::int64_t tile_size = 500;
  /// Per-node relative speeds (empty = homogeneous).  The paper's platform
  /// is homogeneous; its conclusion names heterogeneous nodes as an open
  /// extension — supported here so distributions can be stress-tested
  /// against skewed machines.
  std::vector<double> node_speed;
  /// StarPU-style critical-path priorities (panel ops and early iterations
  /// first).  Turn off for the FIFO-scheduling ablation.
  bool priority_scheduling = true;
  /// Tile-multicast collective, mirroring comm::Multicast exactly: eager
  /// p2p is the Chameleon model (serial point-to-point sends from the
  /// producer — paper, Section II-C); the binomial tree and pipelined
  /// chain are the forwarding optimizations the paper notes Chameleon does
  /// *not* implement, exposed for the collectives ablation.  Per published
  /// tile with d remote consumers the simulated message count follows the
  /// same closed forms as core::exact_*_messages: d for p2p and tree,
  /// d * chain_chunks for the chain.
  comm::CollectiveConfig collective;

  /// Vestigial (see WorkloadMode): simulate_* ignore it.
  WorkloadMode workload_mode = WorkloadMode::kImplicit;

  /// Deterministic platform perturbation, sharing the vmpi fault model:
  /// per-message drop/duplicate/delay fates (recovered by receiver-timeout
  /// retransmission in virtual time), link-bandwidth jitter, and seeded
  /// node slowdowns.  Zero effect when the plan is disabled, so robustness
  /// ablations toggle one field.
  fault::FaultPlan faults;

  /// Optional trace recorder (not owned): when set, the simulator records
  /// one obs::kSimTask event per executed kernel and one obs::kSimTransfer
  /// event per link message, on per-node tracks, in *virtual* seconds —
  /// the simulated counterpart of the StarPU traces the paper inspects to
  /// explain idle time (Section VI).
  obs::Recorder* recorder = nullptr;

  /// Relative speed of one node (1.0 when homogeneous).
  [[nodiscard]] double speed_of(std::int64_t node) const {
    return node_speed.empty() ? 1.0
                              : node_speed[static_cast<std::size_t>(node)];
  }

  /// speed_of() combined with the fault plan's seeded slow-node draw: a
  /// node selected by the slow_node_fraction lottery runs at
  /// slow_node_speed times its configured speed.
  [[nodiscard]] double perturbed_speed(std::int64_t node) const;

  [[nodiscard]] double tile_bytes() const {
    return 8.0 * static_cast<double>(tile_size) *
           static_cast<double>(tile_size);
  }
  /// Seconds to push one tile through a link (excluding latency).
  [[nodiscard]] double tile_transfer_seconds() const {
    return tile_bytes() / (link_bandwidth_gbps * 1e9);
  }
  [[nodiscard]] double latency_seconds() const {
    return link_latency_us * 1e-6;
  }
  /// Seconds to run one kernel of the given type on one worker.
  [[nodiscard]] double task_seconds(TaskType type) const;
  /// Flops of one kernel of the given type.
  [[nodiscard]] double task_flops(TaskType type) const;
  /// Aggregate peak of the whole machine (GFlop/s), for sanity checks.
  [[nodiscard]] double peak_gflops() const {
    return static_cast<double>(nodes) * workers_per_node * core_gflops;
  }
};

}  // namespace anyblock::sim
