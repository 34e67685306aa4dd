// 2.5D replicated distribution (Kwasniewski et al., COnfLUX-style).
//
// A ReplicatedDistribution stacks `layers` (the memory factor c) replicas of
// a 2D base distribution over P_b nodes into a P = P_b * c node machine.
// Node ids are `replica(b, q) = q * P_b + b`: layer q holds a full copy of
// the base layout, so every input tile is stored c times — that is the
// memory the scheme trades for communication.
//
// Ownership rules (the contract every execution layer implements):
//  - *Compute layer rotation.*  All work of elimination iteration l runs on
//    layer `home_layer(l) = l mod c`: the panel tasks (GETRF/POTRF/TRSM) and
//    every trailing-matrix update of that iteration.  Panel broadcasts
//    therefore stay *inside* one layer and keep the base pattern's
//    self-skips, so the broadcast volume equals the 2D volume of the base
//    on P_b nodes — asymptotically 2 t^2 sqrt(c / P) instead of
//    2 t^2 / sqrt(P).
//  - *Update accumulation.*  A trailing tile (i, j) accumulates the updates
//    of iteration l on layer l mod c, into a local partial sum held by the
//    replica of its base owner on that layer.  No communication happens for
//    updates at all until the tile is about to be finalized.
//  - *Reduction.*  Tile (i, j) is finalized at iteration m = min(i, j) on
//    its *home* layer m mod c.  Right before that, each of the
//    `remote_layer_count(m) = min(m, c - 1)` other layers that accumulated
//    partial updates flushes its partial sum to the home replica (ascending
//    layer order, so floating-point summation is deterministic).  This is
//    the only inter-layer traffic: min(m, c-1) tile-sized messages per
//    finalized tile.
//  - c = 1 degenerates to the base distribution exactly: one layer, no
//    partial sums, no reduction.  This is how every execution layer runs
//    the plain 2D schedule (see one_layer below); digests pinned from the
//    former dedicated 2D code paths anchor it in the golden tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/distribution.hpp"

namespace anyblock::core {

class ReplicatedDistribution final : public Distribution {
 public:
  /// Wraps `base` (a 2D distribution over base->num_nodes() nodes) into
  /// `layers` stacked replicas.  Throws std::invalid_argument when
  /// layers < 1.
  ReplicatedDistribution(std::shared_ptr<const Distribution> base,
                         std::int64_t layers);

  /// Final resting owner of tile (i, j): the replica of the base owner on
  /// the tile's home layer.  This is where the finalized tile lives after
  /// the factorization (used by result gathering).
  [[nodiscard]] NodeId owner(std::int64_t i, std::int64_t j) const override;
  [[nodiscard]] std::int64_t num_nodes() const override {
    return base_->num_nodes() * layers_;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const Distribution& base() const { return *base_; }
  [[nodiscard]] std::int64_t layers() const { return layers_; }
  [[nodiscard]] std::int64_t base_nodes() const { return base_->num_nodes(); }

  /// Node id of base node `b`'s replica on layer `q`.
  [[nodiscard]] NodeId replica(NodeId b, std::int64_t q) const {
    return static_cast<NodeId>(q * base_->num_nodes() + b);
  }

  /// Layer that runs every task of elimination iteration l (and owns the
  /// finalized tiles of that iteration): l mod c.
  [[nodiscard]] std::int64_t home_layer(std::int64_t l) const {
    return l % layers_;
  }

  /// Node that computes iteration l's work on tile (i, j) — the base
  /// owner's replica on the iteration's compute layer.
  [[nodiscard]] NodeId compute_node(std::int64_t l, std::int64_t i,
                                    std::int64_t j) const {
    return replica(base_->owner(i, j), home_layer(l));
  }

  /// Number of layers holding a partial sum for a tile finalized at
  /// iteration m: min(m, c - 1).  Iteration m accumulated updates on layers
  /// 0 .. min(m, c) - 1; one of those is the home layer itself.
  [[nodiscard]] std::int64_t remote_layer_count(std::int64_t m) const {
    return m < layers_ - 1 ? m : layers_ - 1;
  }

  /// The s-th remote layer (0 <= s < remote_layer_count(m)) flushing into a
  /// tile finalized at iteration m, in ascending layer order.
  [[nodiscard]] std::int64_t remote_layer(std::int64_t m,
                                          std::int64_t s) const {
    if (m < layers_) return s;  // layers 0..m-1 touched, home m%c == m not
    const std::int64_t home = m % layers_;
    return s < home ? s : s + 1;
  }

  /// Inverse of remote_layer: the flush slot of layer q for a tile
  /// finalized at iteration m.  q must be a remote layer of m.
  [[nodiscard]] std::int64_t remote_slot(std::int64_t m,
                                         std::int64_t q) const {
    if (m < layers_) return q;
    const std::int64_t home = m % layers_;
    return q < home ? q : q - 1;
  }

 private:
  std::shared_ptr<const Distribution> base_;
  std::int64_t layers_;
};

/// The one-layer (c = 1) stacking of `base`: the plain 2D schedule in the
/// form every LU/Cholesky code path takes.  Does not take ownership, so
/// `base` must outlive the result.
[[nodiscard]] ReplicatedDistribution one_layer(const Distribution& base);

}  // namespace anyblock::core
