// Implicit (generator-driven) task DAGs: the simulator's only source of
// LU and Cholesky graphs.
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
//   * Dependency counters live in a dense *frontier*: ordinals are
//     numbered iteration by iteration, so each iteration's counters form
//     one block (BlockTable, sim/pool.hpp), filled from the closed forms
//     when any of its tasks is first satisfied and recycled once all of
//     them are ready.  A satisfy is a block lookup and one byte decrement;
//     only the few iterations in flight hold a block, O(t^2) each.
//   * Published-instance consumer groups are generated when the producer
//     finishes and recycled (RecyclingPool) once every remote copy is
//     delivered, so instance state is bounded by in-flight communication;
//     instance ordinals map to pool slots through the same per-iteration
//     blocks.
//
// Peak memory is O(t^2); the Cholesky acceptance run (P = 4096, t = 2048,
// 1.4e9 tasks) fits in a few hundred MB.
//
// This header holds the frontier and instance pool (ImplicitFrontier).  The
// generator is Implicit25dWorkload (sim/workload_25d.hpp), for LU and
// Cholesky at every memory factor; its one-layer case is the 2D schedule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

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
  std::int32_t arrived = 0;  ///< chunks delivered so far (pipelined chain)
  std::vector<std::int64_t> waiters;
};

/// In-flight state of one published instance, pooled and recycled.
struct ImplicitInstance {
  std::int32_t producer_node = -1;
  std::int32_t used_groups = 0;  ///< live prefix of `groups`
  std::int32_t inflight = 0;     ///< engine's pending transfer events
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

/// The dense dependency frontier and the pooled published-instance state
/// of an implicit generator.  The derived constructor fills task_base_ and
/// inst_base_ (the first ordinal of each iteration block, starting at 0,
/// plus the end) and calls reset_blocks(); `Derived` supplies
/// `fill_deps(l, counts)`, which appends the closed-form unmet-dependency
/// counts of block l, and builds consumer groups through begin_instance /
/// add_consumer when the engine publishes an instance.
template <class Derived>
class ImplicitFrontier {
 public:
  using InstanceHandle = ImplicitInstance*;

  /// One dependency of `id` satisfied; true when the task became ready.
  /// The task's block is filled from the closed forms on the first
  /// satisfy of any task in it; the untouched bit makes the task count as
  /// a live frontier entry from its own first satisfy until it is ready.
  bool satisfy(std::int64_t id) {
    const std::int64_t l = iteration_of(id);
    std::vector<std::uint8_t>* counts = deps_.find(l);
    if (counts == nullptr) counts = &open_deps(l);
    std::uint8_t& deps =
        (*counts)[static_cast<std::size_t>(id - iteration_begin(l))];
    if ((deps & kUntouched) != 0) {
      deps &= static_cast<std::uint8_t>(~kUntouched);
      if (++live_deps_ > deps_peak_) deps_peak_ = live_deps_;
    }
    if (--deps != 0) return false;
    --live_deps_;
    deps_.retire(l);
    return true;
  }

  /// Looks up a published-but-undelivered instance.
  [[nodiscard]] InstanceHandle instance(std::int64_t instance_id) {
    return &pool_[slot_of(block_of(inst_base_, instance_id), instance_id,
                          "implicit instance not in flight")];
  }

  /// Recycles the instance once the engine saw every remote delivery.
  void release(std::int64_t instance_id) {
    const std::int64_t l = block_of(inst_base_, instance_id);
    std::int32_t& slot = slot_of(
        l, instance_id, "releasing an instance that is not in flight");
    pool_.release(slot);
    slot = kNoSlot;
    slots_.retire(l);
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
  /// Pending transfer events of the instance (the engine's refcount).
  static std::int32_t& inflight(InstanceHandle handle) {
    return handle->inflight;
  }
  /// Chunks of the instance delivered to group g (pipelined chain).
  static std::int32_t& chunks_arrived(InstanceHandle handle, std::int64_t g) {
    return handle->groups[static_cast<std::size_t>(g)].arrived;
  }

  /// Peak live frontier entries + in-flight instances, for BENCH_sim.json
  /// and the obs per-phase metrics.
  [[nodiscard]] std::int64_t frontier_peak() const {
    return deps_peak_ + live_peak_;
  }
  /// Live frontier entries: tasks satisfied at least once, not yet ready.
  [[nodiscard]] std::int64_t frontier_size() const { return live_deps_; }
  /// Iteration blocks (dependency counters and instance slots) in use.
  [[nodiscard]] std::int64_t live_blocks() const {
    return deps_.live() + slots_.live();
  }

  /// Dependency blocks: iteration l holds task ordinals
  /// [iteration_begin(l), iteration_begin(l + 1)); block 0 starts at
  /// ordinal 0.
  [[nodiscard]] std::int64_t iterations() const {
    return static_cast<std::int64_t>(task_base_.size()) - 1;
  }
  [[nodiscard]] std::int64_t iteration_begin(std::int64_t l) const {
    return task_base_[static_cast<std::size_t>(l)];
  }
  /// Block of task ordinal `id`.
  [[nodiscard]] std::int64_t iteration_of(std::int64_t id) const {
    return block_of(task_base_, id);
  }

 protected:
  /// Sizes the block tables; the derived constructor calls it once
  /// task_base_ and inst_base_ are filled.
  void reset_blocks() {
    deps_.reset(iterations());
    slots_.reset(static_cast<std::int64_t>(inst_base_.size()) - 1);
  }

  /// Takes a pooled instance for `instance_id` with no consumer groups.
  ImplicitInstance& begin_instance(std::int64_t instance_id,
                                   std::int32_t producer) {
    const std::int64_t l = block_of(inst_base_, instance_id);
    std::vector<std::int32_t>* slots = slots_.find(l);
    if (slots == nullptr) {
      slots = &slots_.open(l, [&](std::vector<std::int32_t>& entries) {
        const std::int64_t size = inst_base_[static_cast<std::size_t>(l) + 1] -
                                  inst_base_[static_cast<std::size_t>(l)];
        entries.assign(static_cast<std::size_t>(size), kNoSlot);
        return size;  // every instance is published and released once
      });
    }
    const std::int64_t slot = pool_.acquire();
    (*slots)[static_cast<std::size_t>(
        instance_id - inst_base_[static_cast<std::size_t>(l)])] =
        static_cast<std::int32_t>(slot);
    ++live_count_;
    if (live_count_ > live_peak_) live_peak_ = live_count_;
    ImplicitInstance& state = pool_[slot];
    state.producer_node = producer;
    state.used_groups = 0;
    state.inflight = 0;
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
    group.arrived = 0;
    group.waiters.clear();
    group.waiters.push_back(waiter);
  }

  /// First task (instance) ordinal of each iteration block, then the end.
  std::vector<std::int64_t> task_base_;
  std::vector<std::int64_t> inst_base_;

 private:
  /// Set on every nonzero count until the task's first satisfy.
  static constexpr std::uint8_t kUntouched = 0x80;
  static constexpr std::int32_t kNoSlot = -1;

  static std::int64_t block_of(const std::vector<std::int64_t>& base,
                               std::int64_t ordinal) {
    return (std::upper_bound(base.begin(), base.end(), ordinal) -
            base.begin()) -
           1;
  }

  std::vector<std::uint8_t>& open_deps(std::int64_t l) {
    return deps_.open(l, [&](std::vector<std::uint8_t>& counts) {
      static_cast<const Derived&>(*this).fill_deps(l, counts);
      if (static_cast<std::int64_t>(counts.size()) !=
          iteration_begin(l + 1) - iteration_begin(l))
        throw std::logic_error("dependency block of the wrong size");
      std::int64_t pending = 0;  // tasks that still become ready
      for (std::uint8_t& deps : counts) {
        if (deps == 0) continue;
        deps |= kUntouched;
        ++pending;
      }
      return pending;
    });
  }

  /// Pool slot of a published-but-unreleased instance of block l; throws
  /// `missing` otherwise.
  std::int32_t& slot_of(std::int64_t l, std::int64_t instance_id,
                        const char* missing) {
    std::vector<std::int32_t>* slots =
        l < 0 || l >= static_cast<std::int64_t>(inst_base_.size()) - 1
            ? nullptr
            : slots_.find(l);
    if (slots == nullptr) throw std::logic_error(missing);
    std::int32_t& slot = (*slots)[static_cast<std::size_t>(
        instance_id - inst_base_[static_cast<std::size_t>(l)])];
    if (slot == kNoSlot) throw std::logic_error(missing);
    return slot;
  }

  BlockTable<std::uint8_t> deps_;    ///< unmet dependencies (the frontier)
  BlockTable<std::int32_t> slots_;   ///< instance -> pool slot
  RecyclingPool<ImplicitInstance> pool_;
  std::int64_t live_deps_ = 0;
  std::int64_t deps_peak_ = 0;
  std::int64_t live_count_ = 0;
  std::int64_t live_peak_ = 0;
};

}  // namespace anyblock::sim
