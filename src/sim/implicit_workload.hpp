// Implicit (generator-driven) task DAGs: the simulator's only source of
// LU, Cholesky and SYRK graphs.
//
// Materializing the graph would hold every task up front: O(t^3) tasks
// plus instance/waiter vectors — ~40 GB for LU at t = 2048, which would cap
// the simulator near the paper's own scales.  The right-looking
// factorizations are perfectly regular, though: a task is identified by
// (iteration l, tile i, j) alone, and every edge of the DAG is a
// closed-form function of that triple.  The generators exploit that:
//
//   * Task *ordinals* follow a fixed construction order.  The engine
//     tie-breaks ready tasks by ordinal, and the materialized oracles in
//     tests/sim/oracle/ emit tasks in the same order, so a built graph run
//     through sim::simulate gives a bit-identical trajectory — the
//     equivalence tests hold makespans, message counts and obs metric rows
//     equal.
//   * Dependency counters live in a FlatMap64 *frontier*, created lazily on
//     first satisfaction and erased on readiness: O(active tiles), not
//     O(total tasks).
//   * Published-instance consumer groups are generated when the producer
//     finishes and recycled (RecyclingPool) once every remote copy is
//     delivered, so instance state is bounded by in-flight communication.
//
// Peak memory is O(t^2); the Cholesky acceptance run (P = 4096, t = 2048,
// 1.4e9 tasks) fits in a few hundred MB.
//
// This header holds the frontier and instance pool every generator shares
// (ImplicitFrontier) and the SYRK generator.  LU and Cholesky, at every
// memory factor, are Implicit25dWorkload (sim/workload_25d.hpp); its
// one-layer case is the 2D schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/distribution.hpp"
#include "sim/machine.hpp"
#include "sim/pool.hpp"

namespace anyblock::sim {

/// Which factorization DAG Implicit25dWorkload walks.
enum class SimKernel : std::uint8_t { kLu, kCholesky };

/// Everything the engine needs to run one task, decoded from its ordinal.
struct TaskView {
  TaskType type = TaskType::kGemm;
  std::int32_t l = -1;
  std::int32_t i = -1;
  std::int32_t j = -1;
  std::int32_t node = -1;
  std::int64_t successor = -1;  ///< next writer of the same tile
  std::int64_t publishes = -1;  ///< instance ordinal produced, if any
};

/// Consumers of one published tile on one node (implicit counterpart of
/// InstanceGroup; waiter ordinals in construction order).
struct ImplicitGroup {
  std::int32_t node = -1;
  std::vector<std::int64_t> waiters;
};

/// In-flight state of one published instance, pooled and recycled.
struct ImplicitInstance {
  std::int32_t producer_node = -1;
  std::int32_t used_groups = 0;  ///< live prefix of `groups`
  std::vector<ImplicitGroup> groups;
};

/// Largest d with d * (d + 1) / 2 <= s (row index inside a triangular
/// update block).  The sqrt seed is exact for any s below 2^50; the
/// adjustment loops absorb rounding at the boundaries.
inline std::int64_t triangular_row(std::int64_t s) {
  auto d = static_cast<std::int64_t>(
      (std::sqrt(8.0 * static_cast<double>(s) + 1.0) - 1.0) / 2.0);
  while (d > 0 && d * (d + 1) / 2 > s) --d;
  while ((d + 1) * (d + 2) / 2 <= s) ++d;
  return d;
}

/// The lazy dependency frontier and the pooled published-instance state
/// every implicit generator shares.  `Derived` supplies the closed-form
/// `initial_deps(id)` and builds consumer groups through begin_instance /
/// add_consumer when the engine publishes an instance.
template <class Derived>
class ImplicitFrontier {
 public:
  using InstanceHandle = const ImplicitInstance*;

  /// One dependency of `id` satisfied; true when the task became ready.
  /// The counter is created from the closed-form dependency count on first
  /// touch and erased when it reaches zero.
  bool satisfy(std::int64_t id) {
    std::int64_t& deps = deps_.at_or_insert(id, -1);
    if (deps < 0) deps = static_cast<const Derived&>(*this).initial_deps(id);
    if (--deps == 0) {
      deps_.erase(id);
      return true;
    }
    return false;
  }

  /// Looks up a published-but-undelivered instance.
  [[nodiscard]] InstanceHandle instance(std::int64_t instance_id) {
    const std::int64_t* slot = live_.find(instance_id);
    if (slot == nullptr)
      throw std::logic_error("implicit instance not in flight");
    return &pool_[*slot];
  }

  /// Recycles the instance once the engine saw every remote delivery.
  void release(std::int64_t instance_id) {
    const std::int64_t* slot = live_.find(instance_id);
    if (slot == nullptr)
      throw std::logic_error("releasing an instance that is not in flight");
    pool_.release(*slot);
    live_.erase(instance_id);
    --live_count_;
  }

  static std::int32_t producer_node(InstanceHandle handle) {
    return handle->producer_node;
  }
  static std::int64_t group_count(InstanceHandle handle) {
    return handle->used_groups;
  }
  static std::int32_t group_node(InstanceHandle handle, std::int64_t g) {
    return handle->groups[static_cast<std::size_t>(g)].node;
  }
  template <class F>
  static void for_each_waiter(InstanceHandle handle, std::int64_t g, F&& f) {
    for (const std::int64_t waiter :
         handle->groups[static_cast<std::size_t>(g)].waiters)
      f(waiter);
  }

  /// Peak live frontier entries + in-flight instances, for BENCH_sim.json
  /// and the obs per-phase metrics.
  [[nodiscard]] std::int64_t frontier_peak() const {
    return static_cast<std::int64_t>(deps_.peak_size()) + live_peak_;
  }

 protected:
  /// Takes a pooled instance for `instance_id` with no consumer groups.
  ImplicitInstance& begin_instance(std::int64_t instance_id,
                                   std::int32_t producer) {
    const std::int64_t slot = pool_.acquire();
    live_.at_or_insert(instance_id, slot) = slot;
    ++live_count_;
    if (live_count_ > live_peak_) live_peak_ = live_count_;
    ImplicitInstance& state = pool_[slot];
    state.producer_node = producer;
    state.used_groups = 0;
    return state;
  }

  /// Appends `waiter` to the group of `node`, opening the group on first
  /// occurrence.  Linear scan, like the materialized oracle: group order
  /// is first occurrence by node, and group counts are small (bounded by
  /// the distribution's per-tile consumer spread, not by P).
  static void add_consumer(ImplicitInstance& state, std::int32_t node,
                           std::int64_t waiter) {
    for (std::int32_t g = 0; g < state.used_groups; ++g) {
      ImplicitGroup& group = state.groups[static_cast<std::size_t>(g)];
      if (group.node == node) {
        group.waiters.push_back(waiter);
        return;
      }
    }
    if (state.used_groups == static_cast<std::int32_t>(state.groups.size()))
      state.groups.emplace_back();
    ImplicitGroup& group =
        state.groups[static_cast<std::size_t>(state.used_groups++)];
    group.node = node;
    group.waiters.clear();
    group.waiters.push_back(waiter);
  }

 private:
  FlatMap64 deps_;  ///< task ordinal -> unmet dependencies (the frontier)
  FlatMap64 live_;  ///< instance ordinal -> pool slot
  RecyclingPool<ImplicitInstance> pool_;
  std::int64_t live_count_ = 0;
  std::int64_t live_peak_ = 0;
};

/// SYRK C -= A A^T as a generator.  (LU and Cholesky run on
/// Implicit25dWorkload, whose one-layer case is the 2D schedule.)
class ImplicitWorkload : public ImplicitFrontier<ImplicitWorkload> {
 public:
  /// C (t x t, lower, `dist_c`) -= A A^T with A of t x k tiles on `dist_a`
  /// (column l mapped through l mod t).
  ImplicitWorkload(std::int64_t t, std::int64_t k,
                   const core::Distribution& dist_c,
                   const core::Distribution& dist_a,
                   const MachineConfig& machine);

  [[nodiscard]] std::int64_t task_count() const { return task_count_; }
  [[nodiscard]] std::int64_t instance_count() const { return instance_count_; }
  [[nodiscard]] double total_flops() const { return total_flops_; }

  /// Tasks with no dependencies, in ordinal order (the engine seeds the
  /// ready queues from these at time zero): every A-tile load.
  template <class F>
  void for_each_initially_ready(F&& f) const {
    for (std::int64_t id = 0; id < t_ * k_; ++id) f(id);
  }

  /// Full decode of one task ordinal (owner lookup included).
  [[nodiscard]] TaskView task(std::int64_t id) const;

  /// Builds the consumer groups of `instance`, published by the decoded
  /// producer `task`.  Must be called exactly once, when the producer
  /// finishes.
  InstanceHandle publish(std::int64_t instance, const TaskView& task);

  /// Closed-form unmet-dependency count at creation (public for tests).
  [[nodiscard]] std::int32_t initial_deps(std::int64_t id) const;

 private:
  struct Decoded {
    TaskType type;
    std::int64_t l, i, j;
  };

  [[nodiscard]] Decoded decode(std::int64_t id) const;
  [[nodiscard]] std::int32_t checked(core::NodeId node) const {
    if (node < 0 || node >= machine_->nodes)
      throw std::invalid_argument("task node outside the machine");
    return static_cast<std::int32_t>(node);
  }
  /// Update block of row i for A column l (after the loads): SYRK(i, i)
  /// sits here, GEMM(i, j) at + 1 + j.
  [[nodiscard]] std::int64_t syrk_row(std::int64_t l, std::int64_t i) const {
    return t_ * k_ + l * (t_ * (t_ + 1) / 2) + i * (i + 1) / 2;
  }

  std::int64_t t_ = 0;
  std::int64_t k_ = 0;  ///< inner tile count (columns of A)
  const core::Distribution* dist_c_ = nullptr;
  const core::Distribution* dist_a_ = nullptr;
  const MachineConfig* machine_ = nullptr;
  std::int64_t task_count_ = 0;
  std::int64_t instance_count_ = 0;
  double total_flops_ = 0.0;
};

}  // namespace anyblock::sim
