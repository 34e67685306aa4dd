#include "dist/dist_solve.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "comm/multicast.hpp"
#include "dist/rank_helpers.hpp"

namespace anyblock::dist {
namespace {

using detail::GroupBuilder;
using detail::TileStore;
using detail::in_group;
using core::NodeId;
using vmpi::Payload;
using vmpi::RankContext;

/// Tag layout for a solve session: the factorization uses [0, t*t) and its
/// gather band [t*t, 2*t*t) is unused here (no gather of the factors), so
/// the solve phases start at 2*t*t.
struct SolveTags {
  std::int64_t t;
  [[nodiscard]] std::int64_t fwd_contrib(std::int64_t i, std::int64_t j) const {
    return 2 * t * t + i * t + j;
  }
  [[nodiscard]] std::int64_t fwd_segment(std::int64_t i) const {
    return 3 * t * t + i;
  }
  [[nodiscard]] std::int64_t bwd_contrib(std::int64_t i, std::int64_t j) const {
    return 3 * t * t + t + i * t + j;
  }
  [[nodiscard]] std::int64_t bwd_segment(std::int64_t i) const {
    return 4 * t * t + t + i;
  }
  [[nodiscard]] std::int64_t gather(std::int64_t i) const {
    return 4 * t * t + 2 * t + i;
  }
};

/// Which triangular system a substitution pass solves.
enum class Pass { kLuForward, kLuBackward, kCholForward, kCholBackward };

/// One substitution pass under the owner-computes rule.
///
/// For each segment index in pass order, contribution owners apply their
/// tile to the already-final segments they hold, send the partial to the
/// diagonal owner, which reduces, solves the diagonal tile system, stores
/// the segment into `segments`, and multicasts it to the distinct owners
/// that will need it later in this pass.  Every segment consumer receives
/// the segment at the end of its step (pass order on every rank), so the
/// forwarding collectives of comm::Multicast cannot deadlock.
class SubstitutionPass {
 public:
  SubstitutionPass(RankContext& ctx, TileStore& store,
                   const core::Distribution& dist, std::int64_t t,
                   std::int64_t nb, Pass pass, const SolveTags& tags,
                   const comm::CollectiveConfig& config)
      : ctx_(ctx),
        store_(store),
        dist_(dist),
        t_(t),
        nb_(nb),
        pass_(pass),
        tags_(tags),
        config_(config) {}

  /// `rhs(i)` provides the initial right-hand segment i on the diagonal
  /// owner; finished segments are stored into `segments`.
  template <typename Rhs>
  void run(std::unordered_map<std::int64_t, Payload>& segments, Rhs rhs) {
    const bool forward =
        pass_ == Pass::kLuForward || pass_ == Pass::kCholForward;
    for (std::int64_t step = 0; step < t_; ++step) {
      const std::int64_t i = forward ? step : t_ - 1 - step;
      send_contributions(i, segments);
      reduce_and_solve(i, segments, rhs);
      receive_segment(i, segments);
    }
  }

 private:
  /// Tile (i, j) participating in segment i's reduction, j in pass order.
  [[nodiscard]] bool is_contrib(std::int64_t i, std::int64_t j) const {
    switch (pass_) {
      case Pass::kLuForward:
      case Pass::kCholForward: return j < i;
      case Pass::kLuBackward: return j > i;
      case Pass::kCholBackward: return j > i;
    }
    return false;
  }

  /// The tile applied for contribution (i, j) and how.
  void apply_tile(std::int64_t i, std::int64_t j, const Payload& seg,
                  Payload& acc) {
    if (pass_ == Pass::kCholBackward) {
      // Row i of L^T comes from column i of L: tile (j, i), transposed.
      linalg::gemv_update_trans(store_.get(j, i), seg, acc, nb_);
    } else {
      linalg::gemv_update(store_.get(i, j), seg, acc, nb_);
    }
  }

  [[nodiscard]] NodeId tile_owner(std::int64_t i, std::int64_t j) const {
    return pass_ == Pass::kCholBackward ? dist_.owner(j, i)
                                        : dist_.owner(i, j);
  }

  [[nodiscard]] std::int64_t contrib_tag(std::int64_t i,
                                         std::int64_t j) const {
    const bool forward =
        pass_ == Pass::kLuForward || pass_ == Pass::kCholForward;
    return forward ? tags_.fwd_contrib(i, j) : tags_.bwd_contrib(i, j);
  }

  [[nodiscard]] std::int64_t segment_tag(std::int64_t i) const {
    const bool forward =
        pass_ == Pass::kLuForward || pass_ == Pass::kCholForward;
    return forward ? tags_.fwd_segment(i) : tags_.bwd_segment(i);
  }

  /// The multicast group of finished segment i: the distinct nodes that
  /// apply it to a later row of this pass, in deterministic order (every
  /// rank rebuilds the identical list, as comm::multicast_recv requires).
  [[nodiscard]] std::vector<int> segment_group(std::int64_t i) const {
    GroupBuilder group(dist_.owner(i, i));
    switch (pass_) {
      case Pass::kLuForward:
      case Pass::kCholForward:
        for (std::int64_t k = i + 1; k < t_; ++k) group.add(dist_.owner(k, i));
        break;
      case Pass::kLuBackward:
        for (std::int64_t k = 0; k < i; ++k) group.add(dist_.owner(k, i));
        break;
      case Pass::kCholBackward:
        // Contribution for row m < i uses tile (i, m), owned lower-side.
        for (std::int64_t m = 0; m < i; ++m) group.add(dist_.owner(i, m));
        break;
    }
    return std::move(group).take();
  }

  void send_contributions(std::int64_t i,
                          std::unordered_map<std::int64_t, Payload>& segments) {
    const int self = ctx_.rank();
    const NodeId diag_owner = dist_.owner(i, i);
    for (std::int64_t j = 0; j < t_; ++j) {
      if (!is_contrib(i, j)) continue;
      if (tile_owner(i, j) != self) continue;
      // Segment j is final and local: it arrived in receive_segment at the
      // end of step j (this rank is a segment_group(j) member by owning a
      // contributing tile of a later row).
      const Payload& segment = segments.at(segment_tag(j));
      Payload contribution(static_cast<std::size_t>(nb_), 0.0);
      apply_tile(i, j, segment, contribution);
      if (diag_owner == self) {
        local_[i * t_ + j] = std::move(contribution);
      } else {
        ctx_.send(static_cast<int>(diag_owner), contrib_tag(i, j),
                  std::move(contribution));
      }
    }
  }

  template <typename Rhs>
  void reduce_and_solve(std::int64_t i,
                        std::unordered_map<std::int64_t, Payload>& segments,
                        Rhs rhs) {
    const int self = ctx_.rank();
    if (dist_.owner(i, i) != self) return;
    Payload segment = rhs(i);
    for (std::int64_t j = 0; j < t_; ++j) {
      if (!is_contrib(i, j)) continue;
      Payload contribution;
      if (tile_owner(i, j) == self) {
        contribution = std::move(local_.at(i * t_ + j));
        local_.erase(i * t_ + j);
      } else {
        contribution = ctx_.recv(static_cast<int>(tile_owner(i, j)),
                                 contrib_tag(i, j));
      }
      // Contributions hold -(T * x_j); reduce by adding.
      for (std::int64_t e = 0; e < nb_; ++e)
        segment[static_cast<std::size_t>(e)] +=
            contribution[static_cast<std::size_t>(e)];
    }
    const Payload& diag = store_.get(i, i);
    switch (pass_) {
      case Pass::kLuForward: linalg::trsv_lower_unit(diag, segment, nb_); break;
      case Pass::kLuBackward: linalg::trsv_upper(diag, segment, nb_); break;
      case Pass::kCholForward: linalg::trsv_lower(diag, segment, nb_); break;
      case Pass::kCholBackward:
        linalg::trsv_lower_trans(diag, segment, nb_);
        break;
    }
    comm::multicast_send(ctx_, config_, segment_tag(i), segment,
                         segment_group(i));
    segments[segment_tag(i)] = std::move(segment);
  }

  /// Consumer half of the segment multicast, run by every group member at
  /// the end of step i.
  void receive_segment(std::int64_t i,
                       std::unordered_map<std::int64_t, Payload>& segments) {
    const NodeId diag_owner = dist_.owner(i, i);
    if (diag_owner == ctx_.rank()) return;  // root stored it already
    const auto dests = segment_group(i);
    if (!in_group(ctx_.rank(), dests)) return;
    segments.emplace(segment_tag(i),
                     comm::multicast_recv(ctx_, config_, segment_tag(i),
                                          static_cast<int>(diag_owner), dests));
  }

  RankContext& ctx_;
  TileStore& store_;
  const core::Distribution& dist_;
  std::int64_t t_;
  std::int64_t nb_;
  Pass pass_;
  const SolveTags& tags_;
  const comm::CollectiveConfig& config_;
  /// Contributions a rank owes itself (diag owner == contributor).
  std::unordered_map<std::int64_t, Payload> local_;
};

DistSolveResult run_solve(const linalg::TiledMatrix& input,
                          const std::vector<double>& b,
                          const core::Distribution& distribution,
                          bool cholesky, const comm::CollectiveConfig& config,
                          obs::Recorder* recorder,
                          fault::FaultInjector* injector) {
  const std::int64_t t = input.tiles();
  const std::int64_t nb = input.tile_size();
  if (static_cast<std::int64_t>(b.size()) != input.dim())
    throw std::invalid_argument("rhs length must equal the matrix dimension");
  const int ranks = static_cast<int>(distribution.num_nodes());
  const SolveTags tags{t};
  const core::ReplicatedDistribution flat = core::one_layer(distribution);

  DistSolveResult result;
  result.x.assign(b.size(), 0.0);
  std::mutex out_mutex;
  std::atomic<bool> ok{true};
  std::vector<std::int64_t> factor_counts(static_cast<std::size_t>(ranks));
  std::vector<std::int64_t> solve_counts(static_cast<std::size_t>(ranks));

  result.report = vmpi::run_ranks(ranks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    TileStore store =
        detail::make_rank_store(input, flat, self, /*lower_only=*/cholesky);
    detail::factorize_rank(ctx, store, flat, t, nb, cholesky, ok, config);
    factor_counts[static_cast<std::size_t>(self)] =
        ctx.traffic().messages_sent;

    // Forward pass: rhs = the b segment.
    std::unordered_map<std::int64_t, Payload> fwd_segments;
    SubstitutionPass forward(ctx, store, distribution, t, nb,
                             cholesky ? Pass::kCholForward : Pass::kLuForward,
                             tags, config);
    forward.run(fwd_segments, [&](std::int64_t i) {
      return Payload(b.begin() + i * nb, b.begin() + (i + 1) * nb);
    });

    // Backward pass: rhs = the forward result's segment (the diag owner of
    // row i computed and stored it during the forward pass).
    std::unordered_map<std::int64_t, Payload> bwd_segments;
    SubstitutionPass backward(
        ctx, store, distribution, t, nb,
        cholesky ? Pass::kCholBackward : Pass::kLuBackward, tags, config);
    backward.run(bwd_segments, [&](std::int64_t i) {
      return fwd_segments.at(tags.fwd_segment(i));
    });

    solve_counts[static_cast<std::size_t>(self)] =
        ctx.traffic().messages_sent -
        factor_counts[static_cast<std::size_t>(self)];

    // Assemble x on rank 0 from the diagonal owners.
    if (self == 0) {
      const std::lock_guard<std::mutex> lock(out_mutex);
      for (std::int64_t i = 0; i < t; ++i) {
        const int owner = static_cast<int>(distribution.owner(i, i));
        const Payload segment =
            owner == 0 ? bwd_segments.at(tags.bwd_segment(i))
                       : ctx.recv(owner, tags.gather(i));
        std::copy(segment.begin(), segment.end(),
                  result.x.begin() + i * nb);
      }
    } else {
      for (std::int64_t i = 0; i < t; ++i) {
        if (distribution.owner(i, i) != self) continue;
        ctx.send(0, tags.gather(i), bwd_segments.at(tags.bwd_segment(i)));
      }
    }
  }, {recorder, injector});

  result.ok = ok.load();
  for (const auto c : factor_counts) result.factor_messages += c;
  for (const auto c : solve_counts) result.solve_messages += c;
  return result;
}

}  // namespace

DistSolveResult distributed_lu_solve(const linalg::TiledMatrix& input,
                                     const std::vector<double>& b,
                                     const core::Distribution& distribution,
                                     const comm::CollectiveConfig& config,
                                     obs::Recorder* recorder,
                                     fault::FaultInjector* injector) {
  return run_solve(input, b, distribution, /*cholesky=*/false, config,
                   recorder, injector);
}

DistSolveResult distributed_cholesky_solve(
    const linalg::TiledMatrix& input, const std::vector<double>& b,
    const core::Distribution& distribution,
    const comm::CollectiveConfig& config, obs::Recorder* recorder,
    fault::FaultInjector* injector) {
  return run_solve(input, b, distribution, /*cholesky=*/true, config,
                   recorder, injector);
}

}  // namespace anyblock::dist
