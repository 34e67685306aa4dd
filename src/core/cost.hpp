// Communication cost metric T(G) and the per-factorization volume
// predictions of Equations 1 and 2 (paper, Section III).
//
// All volumes are expressed in *tiles sent*; multiply by the tile byte size
// to obtain bytes.  `t` below is the number of tiles per matrix side.
#pragma once

#include <cstdint>
#include <vector>

#include "comm/config.hpp"
#include "core/distribution.hpp"
#include "core/pattern.hpp"
#include "core/replicated.hpp"

namespace anyblock::core {

/// T(G) = x-bar + y-bar: mean distinct nodes per pattern row plus per
/// pattern column.  Drives LU communications (paper, Section III-C).
double lu_cost(const Pattern& pattern);

/// T(G) = z-bar: mean distinct nodes per pattern colrow.  Drives Cholesky
/// communications; requires a square pattern.
double cholesky_cost(const Pattern& pattern);

/// Symmetric cost of a (possibly rectangular) pattern used for comparison
/// plots (paper, Section V-B): for 2DBC-style patterns the number of nodes
/// in a colrow is #row-nodes + #col-nodes - 1 (one shared at the
/// intersection), hence T_sym = T_LU - 1.  For square patterns, the exact
/// colrow count is used instead.
double symmetric_cost(const Pattern& pattern);

/// Eq. 1: Q_LU(G) = t(t+1)/2 * (x-bar + y-bar - 2), in tiles, for an
/// m x m matrix of t x t tiles.  Exact up to edge effects (domain shrinking
/// in the last r or c iterations and partial replication at matrix borders).
double predicted_lu_volume(const Pattern& pattern, std::int64_t t);

/// Eq. 2: Q_Chol(G) = t(t+1)/2 * (z-bar - 1), in tiles.
double predicted_cholesky_volume(const Pattern& pattern, std::int64_t t);

/// Exact communication volume (tiles sent) of a right-looking tile LU
/// factorization of a t x t tile matrix under the owner-computes rule:
/// counts distinct (tile, destination) pairs over all iterations, including
/// the edge effects Eq. 1 neglects.  O(t^2 * (r + c)) time.
std::int64_t exact_lu_volume(const Pattern& pattern, std::int64_t t);

/// Exact communication volume of a right-looking tile Cholesky (lower
/// triangle) under owner-computes; requires a square pattern.  Free diagonal
/// cells are bound with the balanced lazy assignment of Distribution (this
/// is the Distribution overload on a PatternDistribution).
std::int64_t exact_cholesky_volume(const Pattern& pattern, std::int64_t t);

/// Generic-distribution overloads: the consumer walk of core/consumers.hpp
/// over an arbitrary owner map, equal to exact_*_messages under eager p2p.
/// exact_lu_volume(Pattern) counts separately, through the periodicity
/// shortcut, so the two validate each other in the tests (they must agree
/// exactly on PatternDistribution).
std::int64_t exact_lu_volume(const Distribution& distribution, std::int64_t t);
std::int64_t exact_cholesky_volume(const Distribution& distribution,
                                   std::int64_t t);

/// Closed-form message-count predictions per collective algorithm.
///
/// Each published tile with d distinct remote consumers costs
/// comm::multicast_messages(d, config) messages:
///   p2p   d              (Eq. 1/2 territory: messages == volume)
///   tree  d              (same count, critical path ceil(log2(d+1)))
///   chain d * chunks     (every chain link carries every chunk)
/// These are the numbers the vmpi-measured counters of dist::distributed_*
/// and the simulator's per-run totals must match *exactly* — the
/// three-layer cross-check the comm subsystem is built around.
std::int64_t exact_lu_messages(const Distribution& distribution,
                               std::int64_t t,
                               const comm::CollectiveConfig& config);
std::int64_t exact_cholesky_messages(const Distribution& distribution,
                                     std::int64_t t,
                                     const comm::CollectiveConfig& config);

/// Per-iteration breakdown of the exact message counts above (entry l =
/// messages for tiles published at iteration l); sums to exact_*_messages.
std::vector<std::int64_t> lu_message_profile(
    const Distribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config);
std::vector<std::int64_t> cholesky_message_profile(
    const Distribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config);

/// ---- 2.5D closed forms (core/replicated.hpp) -------------------------
///
/// Under the layer-rotation schedule, iteration l's panel broadcasts stay
/// inside compute layer l mod c and are node-for-node isomorphic to the 2D
/// broadcasts of the base distribution, so the *only* extra traffic is the
/// inter-layer reduction: every tile finalized at iteration m receives
/// min(m, c-1) partial sums, one tile each.  Hence
///   volume_25d  = exact_*_volume(base)  + reduce_count_*(t, c)
///   messages_25d = exact_*_messages(base) + reduce_count_* * msgs(1 dest)
/// and both are pinned against simulator / vmpi measurements by the tests.

/// Number of inter-layer partial-sum transfers in a t x t LU with memory
/// factor `layers`: sum over l of (2(t-1-l) + 1) * min(l, layers - 1).
std::int64_t reduce_count_lu(std::int64_t t, std::int64_t layers);

/// Same for Cholesky (t - l tiles finalize at iteration l):
/// sum over l of (t - l) * min(l, layers - 1).
std::int64_t reduce_count_cholesky(std::int64_t t, std::int64_t layers);

/// Exact communication volume (tiles sent) of the 2.5D factorizations.
std::int64_t exact_lu_volume_25d(const ReplicatedDistribution& distribution,
                                 std::int64_t t);
std::int64_t exact_cholesky_volume_25d(
    const ReplicatedDistribution& distribution, std::int64_t t);

/// Exact message counts per collective algorithm; each reduction is a
/// single-destination multicast (p2p/tree: 1 message, chain: chunk count).
std::int64_t exact_lu_messages_25d(const ReplicatedDistribution& distribution,
                                   std::int64_t t,
                                   const comm::CollectiveConfig& config);
std::int64_t exact_cholesky_messages_25d(
    const ReplicatedDistribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config);

/// Per-rank *sent-tile* counts under eager p2p (entry n = tiles rank n
/// produces and sends): broadcasts are credited to the producing replica on
/// the iteration's compute layer, reductions to the flushing remote
/// replica.  Sums to exact_*_volume_25d; the simulator's per-node
/// messages_sent must match entry for entry under kEagerP2P.
std::vector<std::int64_t> lu_send_profile_25d(
    const ReplicatedDistribution& distribution, std::int64_t t);
std::vector<std::int64_t> cholesky_send_profile_25d(
    const ReplicatedDistribution& distribution, std::int64_t t);

}  // namespace anyblock::core
