// 2.5D task DAGs for the cluster simulator (core/replicated.hpp).
//
// The 2.5D schedule keeps the 2D right-looking structure but rotates every
// iteration onto compute layer l mod c and defers the trailing-matrix
// exchange: updates accumulate into layer-local partial sums, and a tile is
// only reduced across layers right before it is finalized.  Two new task
// types carry that:
//
//   kFlush(l, i, j)   on a *remote* layer: publishes the layer's partial
//                     sum of tile (i, j) toward the home replica (zero
//                     compute; its published instance has exactly one
//                     consumer group — the matching reduce task).
//   kReduce(l, i, j)  on the *home* layer: adds one received partial into
//                     the home tile (tile^2 flops); reduces of one tile
//                     chain in ascending source-layer order, then the
//                     finalizing GETRF/POTRF/TRSM chains after the last.
//
// Per iteration l (k = t-1-l, rq = min(l, c-1) remote layers) the task
// order is: the flush block, the reduce block, then the 2D body (panel ops
// and the layer's GEMMs/SYRKs).  Chains are keyed by (tile, layer) — a
// GEMM chains after the previous writer of the same tile *on its own
// layer*.  At c = 1 both blocks are empty and the layer key is constant,
// so the one-layer schedule *is* the 2D right-looking schedule; it is the
// only LU/Cholesky DAG the simulator has.  Digests pinned from the former
// dedicated 2D generators (tests/sim/equivalence_25d_test.cpp) anchor it.
//
// Implicit25dWorkload generates this DAG on demand: ordinals follow a
// fixed construction order computed from closed forms, so the frontier
// stays O(t^2).  The materialized oracle in tests/sim/oracle/ emits the
// same graph task for task.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "core/replicated.hpp"
#include "sim/implicit_workload.hpp"
#include "sim/machine.hpp"

namespace anyblock::sim {

class Implicit25dWorkload : public ImplicitFrontier<Implicit25dWorkload> {
 public:
  /// kLu or kCholesky on a t x t tile grid under `distribution`.
  Implicit25dWorkload(SimKernel kernel, std::int64_t t,
                      const core::ReplicatedDistribution& distribution,
                      const MachineConfig& machine);

  [[nodiscard]] SimKernel kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t task_count() const { return task_count_; }
  [[nodiscard]] std::int64_t instance_count() const { return instance_count_; }
  [[nodiscard]] double total_flops() const { return total_flops_; }

  template <class F>
  void for_each_initially_ready(F&& f) const {
    f(std::int64_t{0});  // iteration 0 has no flushes: GETRF/POTRF leads
  }

  [[nodiscard]] TaskView task(std::int64_t id) const;

  /// Builds the consumer groups of `instance` when its producer finishes.
  InstanceHandle publish(std::int64_t instance, const TaskView& task);

  /// Closed-form unmet-dependency count at creation (public for tests).
  [[nodiscard]] std::int32_t initial_deps(std::int64_t id) const;

 private:
  struct Decoded {
    TaskType type;
    std::int64_t l, i, j;
    std::int64_t slot = -1;  ///< flush/reduce slot (source-layer index)
  };

  [[nodiscard]] Decoded decode(std::int64_t id) const;
  [[nodiscard]] std::int64_t iteration_of(std::int64_t id) const;

  /// l mod c, the compute layer of iteration l (a table: the hot paths
  /// would otherwise pay an integer division per task).
  [[nodiscard]] std::int64_t layer(std::int64_t l) const {
    return layer_[static_cast<std::size_t>(l)];
  }
  /// min(l, c - 1): remote layers flushing into iteration l's tiles
  /// (ReplicatedDistribution::remote_layer_count, without the indirection).
  [[nodiscard]] std::int64_t rq(std::int64_t l) const {
    return l < layers_ - 1 ? l : layers_ - 1;
  }
  /// Flush-block size of iteration l (== reduce-block size).
  [[nodiscard]] std::int64_t flush_block(std::int64_t l) const {
    const std::int64_t k = t_ - 1 - l;
    return (kernel_ == SimKernel::kLu ? 2 * k + 1 : k + 1) * rq(l);
  }
  /// Index of tile (i, j) in iteration l's finalized-tile order:
  /// (l, l) first, then the column panel, then (LU) the row panel.
  [[nodiscard]] std::int64_t tile_index(std::int64_t l, std::int64_t i,
                                        std::int64_t j) const {
    if (i == l && j == l) return 0;
    if (j == l) return i - l;
    return (t_ - 1 - l) + (j - l);
  }

  /// Replica of tile (i, j)'s base owner on `layer`, checked against the
  /// machine.  Callers hoist the layer out of their consumer loops.
  [[nodiscard]] std::int32_t node_on(std::int64_t layer, std::int64_t i,
                                     std::int64_t j) const {
    const std::int64_t node = layer * base_nodes_ + base_->owner(i, j);
    if (node < 0 || node >= machine_->nodes)
      throw std::invalid_argument("task node outside the machine");
    return static_cast<std::int32_t>(node);
  }

  /// Ordinal of GEMM(l, i, j) in the LU layout.
  [[nodiscard]] std::int64_t lu_gemm(std::int64_t l, std::int64_t i,
                                     std::int64_t j) const {
    const std::int64_t k = t_ - 1 - l;
    return task_base_[static_cast<std::size_t>(l)] + 2 * flush_block(l) + 1 +
           2 * k + (i - l - 1) * k + (j - l - 1);
  }
  /// Cholesky update-block start for row i of iteration l.
  [[nodiscard]] std::int64_t chol_row(std::int64_t l, std::int64_t i) const {
    const std::int64_t k = t_ - 1 - l;
    const std::int64_t d = i - l - 1;
    return task_base_[static_cast<std::size_t>(l)] + 2 * flush_block(l) + 1 +
           k + d * (d + 1) / 2;
  }
  /// Ordinal of the first task of iteration m writing finalized tile
  /// (i, j): its first reduce when partial sums exist, else the finalizer.
  [[nodiscard]] std::int64_t finalize_entry(std::int64_t m, std::int64_t i,
                                            std::int64_t j) const {
    const std::int64_t base = task_base_[static_cast<std::size_t>(m)];
    const std::int64_t tile = tile_index(m, i, j);
    if (rq(m) > 0) return base + flush_block(m) + tile * rq(m);
    return base + 2 * flush_block(m) + tile;
  }
  /// Ordinal of iteration m's flush of tile (i, j) from layer q.
  [[nodiscard]] std::int64_t flush_task(std::int64_t m, std::int64_t i,
                                        std::int64_t j, std::int64_t q) const {
    return task_base_[static_cast<std::size_t>(m)] +
           tile_index(m, i, j) * rq(m) + dist_->remote_slot(m, q);
  }

  SimKernel kernel_;
  std::int64_t t_ = 0;
  std::int64_t layers_ = 1;
  const core::ReplicatedDistribution* dist_ = nullptr;
  const core::Distribution* base_ = nullptr;  ///< dist_->base()
  std::int64_t base_nodes_ = 0;
  const MachineConfig* machine_ = nullptr;

  std::vector<std::int64_t> task_base_;
  std::vector<std::int64_t> inst_base_;
  std::vector<std::int64_t> layer_;
  std::int64_t task_count_ = 0;
  std::int64_t instance_count_ = 0;
  double total_flops_ = 0.0;
};

}  // namespace anyblock::sim
