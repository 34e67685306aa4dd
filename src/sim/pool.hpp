// Allocation helpers for the simulator hot path.
//
//   * RecyclingPool<T>: slot pool with a free list.  Released objects keep
//     their heap allocations (a recycled ImplicitInstance reuses its group
//     and waiter vectors' capacity), so steady-state publish/release cycles
//     of the implicit workloads allocate nothing.
//   * BlockTable<T>: per-iteration arrays of T.  The implicit DAGs number
//     their tasks and published instances iteration by iteration, so the
//     state of one ordinal is an offset into its iteration's block.  A
//     block is opened when its iteration is first touched and goes back to
//     a spare list once every entry in it has retired; only the few
//     iterations in flight hold a block, so memory stays O(live iterations
//     x t^2) and never scales with the total task count.  This is the
//     implicit DAG's frontier (dependency counters and instance slots): it
//     sees about three operations per task, so a lookup is one index, with
//     no hashing or probing.
#pragma once

#include <cstdint>
#include <cstddef>
#include <deque>
#include <vector>

namespace anyblock::sim {

/// Pool of reusable T slots addressed by a dense index.  acquire() prefers
/// recycled slots; release() never destroys the object, so T's internal
/// buffers survive for the next acquire (callers re-initialize logically).
/// The default deque storage keeps references valid across acquire();
/// std::vector storage is faster where no reference outlives one.
template <class T, class Storage = std::deque<T>>
class RecyclingPool {
 public:
  std::int64_t acquire() {
    if (!free_.empty()) {
      const std::int64_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::int64_t>(slots_.size()) - 1;
  }

  void release(std::int64_t slot) { free_.push_back(slot); }

  T& operator[](std::int64_t slot) {
    return slots_[static_cast<std::size_t>(slot)];
  }
  const T& operator[](std::int64_t slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }

  [[nodiscard]] std::int64_t live() const {
    return static_cast<std::int64_t>(slots_.size() - free_.size());
  }

 private:
  Storage slots_;
  std::vector<std::int64_t> free_;
};

/// One array of T per iteration, present only while the iteration is in
/// flight.  open() fills a block and sets how many of its entries must
/// retire before it is recycled.  Blocks are recycled vectors sized
/// exactly to their iteration, so callers index them with operator[]
/// (checked under _GLIBCXX_ASSERTIONS); a block reference stays valid
/// until the next open().
template <class T>
class BlockTable {
 public:
  /// Forgets every block; iterations are numbered [0, iterations).
  void reset(std::int64_t iterations) {
    slot_.assign(static_cast<std::size_t>(iterations), kNone);
  }

  /// Block of iteration l, or nullptr when it holds none.
  std::vector<T>* find(std::int64_t l) {
    const std::int32_t slot = slot_[static_cast<std::size_t>(l)];
    return slot == kNone ? nullptr : &blocks_[static_cast<std::size_t>(slot)];
  }

  /// Opens iteration l's block: `fill(block)` appends its entries to the
  /// empty (recycled) vector and returns how many must retire before the
  /// block goes back to the spare list.
  template <class Fill>
  std::vector<T>& open(std::int64_t l, Fill&& fill) {
    std::int32_t slot;
    if (spare_.empty()) {
      slot = static_cast<std::int32_t>(blocks_.size());
      blocks_.emplace_back();
      pending_.push_back(0);
    } else {
      slot = spare_.back();
      spare_.pop_back();
    }
    std::vector<T>& block = blocks_[static_cast<std::size_t>(slot)];
    block.clear();
    pending_[static_cast<std::size_t>(slot)] = fill(block);
    slot_[static_cast<std::size_t>(l)] = slot;
    ++live_;
    return block;
  }

  /// One entry of iteration l retired; the last one recycles the block.
  void retire(std::int64_t l) {
    std::int32_t& slot = slot_[static_cast<std::size_t>(l)];
    if (--pending_[static_cast<std::size_t>(slot)] > 0) return;
    spare_.push_back(slot);
    slot = kNone;
    --live_;
  }

  /// Iterations currently holding a block.
  [[nodiscard]] std::int64_t live() const { return live_; }

 private:
  static constexpr std::int32_t kNone = -1;

  std::vector<std::int32_t> slot_;     ///< iteration -> block, or kNone
  std::vector<std::vector<T>> blocks_;
  std::vector<std::int64_t> pending_;  ///< per block: entries yet to retire
  std::vector<std::int32_t> spare_;
  std::int64_t live_ = 0;
};

}  // namespace anyblock::sim
