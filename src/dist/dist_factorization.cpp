#include "dist/dist_factorization.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "comm/multicast.hpp"
#include "obs/trace.hpp"
#include "dist/rank_helpers.hpp"
#include "linalg/kernels.hpp"

namespace anyblock::dist {

namespace detail {

void gather_to_root(TileStore& store, RankContext& ctx, std::int64_t t,
                    const core::Distribution& distribution, bool lower_only,
                    TiledMatrix& out, std::mutex& out_mutex,
                    std::int64_t gather_base) {
  if (ctx.rank() == 0) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    for (std::int64_t i = 0; i < t; ++i) {
      const std::int64_t j_end = lower_only ? i + 1 : t;
      for (std::int64_t j = 0; j < j_end; ++j) {
        const int owner = static_cast<int>(distribution.owner(i, j));
        Payload data = owner == 0
                           ? store.get(i, j)
                           : ctx.recv(owner, gather_base + store.key(i, j));
        auto tile = out.tile(i, j);
        std::copy(data.begin(), data.end(), tile.begin());
      }
    }
  } else {
    for (std::int64_t i = 0; i < t; ++i) {
      const std::int64_t j_end = lower_only ? i + 1 : t;
      for (std::int64_t j = 0; j < j_end; ++j) {
        if (distribution.owner(i, j) != ctx.rank()) continue;
        ctx.send(0, gather_base + store.key(i, j), store.get(i, j));
      }
    }
  }
}

}  // namespace detail

namespace {
using detail::GroupBuilder;
using detail::TileStore;
using detail::in_group;
using core::NodeId;
using linalg::TiledMatrix;
using vmpi::Payload;
using vmpi::RankContext;
}  // namespace

DistRunResult distributed_syrk(const TiledMatrix& c_input,
                               const linalg::TiledPanel& a_input,
                               const core::Distribution& dist_c,
                               const core::Distribution& dist_a,
                               const comm::CollectiveConfig& config,
                               obs::Recorder* recorder,
                               fault::FaultInjector* injector) {
  const std::int64_t t = c_input.tiles();
  const std::int64_t k = a_input.tile_cols();
  const std::int64_t nb = c_input.tile_size();
  if (a_input.tile_rows() != t || a_input.tile_size() != nb)
    throw std::invalid_argument("distributed_syrk: panel shape mismatch");
  const int ranks = static_cast<int>(dist_c.num_nodes());

  DistRunResult result;
  result.factored = TiledMatrix(t, nb);
  std::mutex out_mutex;
  std::atomic<bool> ok{true};
  std::vector<std::int64_t> update_messages(static_cast<std::size_t>(ranks));
  std::vector<std::int64_t> update_received(static_cast<std::size_t>(ranks));

  // A-tile tags occupy [0, t*k); the C gather sits above them.
  const auto a_tag = [k](std::int64_t i, std::int64_t l) { return i * k + l; };
  const auto owner_a = [&](std::int64_t i, std::int64_t l) {
    return dist_a.owner(i, l % t);
  };
  // A(i, l) travels along colrow i of C (the Cholesky panel pattern).
  const auto a_group = [&](std::int64_t i, std::int64_t l) {
    GroupBuilder group(owner_a(i, l));
    for (std::int64_t j = 0; j <= i; ++j) group.add(dist_c.owner(i, j));
    for (std::int64_t m = i; m < t; ++m) group.add(dist_c.owner(m, i));
    return std::move(group).take();
  };

  result.report = vmpi::run_ranks(ranks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    TileStore store(c_input, dist_c, self, /*lower_only=*/true);

    // Local copies of the owned A tiles.
    std::unordered_map<std::int64_t, Payload> a_tiles;
    for (std::int64_t i = 0; i < t; ++i) {
      for (std::int64_t l = 0; l < k; ++l) {
        if (owner_a(i, l) != self) continue;
        const auto tile = a_input.tile(i, l);
        a_tiles.emplace(a_tag(i, l), Payload(tile.begin(), tile.end()));
      }
    }

    for (std::int64_t l = 0; l < k; ++l) {
      // Multicast owned panel tiles along their C colrows; consumers
      // receive ascending i — the same order on every rank, so the
      // forwarding collectives cannot deadlock.
      for (std::int64_t i = 0; i < t; ++i) {
        const auto dests = a_group(i, l);
        if (owner_a(i, l) == self) {
          comm::multicast_send(ctx, config, a_tag(i, l),
                               a_tiles.at(a_tag(i, l)), dests);
        } else if (in_group(self, dests)) {
          a_tiles.emplace(a_tag(i, l),
                          comm::multicast_recv(
                              ctx, config, a_tag(i, l),
                              static_cast<int>(owner_a(i, l)), dests));
        }
      }
      // Update owned C tiles; the colrow memberships above guarantee both
      // A inputs of every owned tile are local.
      for (std::int64_t i = 0; i < t; ++i) {
        for (std::int64_t j = 0; j <= i; ++j) {
          if (dist_c.owner(i, j) != self) continue;
          const Payload& left = a_tiles.at(a_tag(i, l));
          if (i == j) {
            linalg::syrk_update_lower(left, store.get(i, i), nb);
          } else {
            linalg::gemm_update_trans_b(left, a_tiles.at(a_tag(j, l)),
                                        store.get(i, j), nb);
          }
        }
      }
    }

    {
      const auto traffic = ctx.traffic();
      update_messages[static_cast<std::size_t>(self)] = traffic.messages_sent;
      update_received[static_cast<std::size_t>(self)] =
          traffic.messages_received;
    }
    // Gather tags sit above the A-tile band: t*k + tile id.
    detail::gather_to_root(store, ctx, t, dist_c, /*lower_only=*/true,
                           result.factored, out_mutex, t * k);
  }, recorder, injector);

  result.ok = ok.load();
  for (const auto count : update_messages) result.tile_messages += count;
  for (const auto count : update_received)
    result.tile_messages_received += count;
  return result;
}

DistRunResult distributed_gemm(const TiledMatrix& c_input,
                               const linalg::TiledPanel& a_input,
                               const linalg::TiledPanel& b_input,
                               const core::Distribution& dist,
                               const comm::CollectiveConfig& config,
                               obs::Recorder* recorder,
                               fault::FaultInjector* injector) {
  const std::int64_t t = c_input.tiles();
  const std::int64_t k = a_input.tile_cols();
  const std::int64_t nb = c_input.tile_size();
  if (a_input.tile_rows() != t || b_input.tile_cols() != t ||
      b_input.tile_rows() != k || a_input.tile_size() != nb ||
      b_input.tile_size() != nb)
    throw std::invalid_argument("distributed_gemm: shape mismatch");
  const int ranks = static_cast<int>(dist.num_nodes());

  DistRunResult result;
  result.factored = TiledMatrix(t, nb);
  std::mutex out_mutex;
  std::vector<std::int64_t> update_messages(static_cast<std::size_t>(ranks));
  std::vector<std::int64_t> update_received(static_cast<std::size_t>(ranks));

  // Tag bands: A tiles in [0, t*k), B tiles in [t*k, 2*t*k), gather above.
  const auto a_tag = [k](std::int64_t i, std::int64_t l) { return i * k + l; };
  const auto b_tag = [t, k](std::int64_t l, std::int64_t j) {
    return t * k + l * t + j;
  };
  const auto owner_a = [&](std::int64_t i, std::int64_t l) {
    return dist.owner(i, l % t);
  };
  const auto owner_b = [&](std::int64_t l, std::int64_t j) {
    return dist.owner(l % t, j);
  };
  // A(i, l) travels along row i of C; B(l, j) travels down column j.
  const auto a_group = [&](std::int64_t i, std::int64_t l) {
    GroupBuilder group(owner_a(i, l));
    for (std::int64_t j = 0; j < t; ++j) group.add(dist.owner(i, j));
    return std::move(group).take();
  };
  const auto b_group = [&](std::int64_t l, std::int64_t j) {
    GroupBuilder group(owner_b(l, j));
    for (std::int64_t i = 0; i < t; ++i) group.add(dist.owner(i, j));
    return std::move(group).take();
  };

  result.report = vmpi::run_ranks(ranks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    TileStore store(c_input, dist, self, /*lower_only=*/false);

    std::unordered_map<std::int64_t, Payload> inputs;
    for (std::int64_t l = 0; l < k; ++l) {
      for (std::int64_t i = 0; i < t; ++i) {
        if (owner_a(i, l) == self) {
          const auto tile = a_input.tile(i, l);
          inputs.emplace(a_tag(i, l), Payload(tile.begin(), tile.end()));
        }
      }
      for (std::int64_t j = 0; j < t; ++j) {
        if (owner_b(l, j) == self) {
          const auto tile = b_input.tile(l, j);
          inputs.emplace(b_tag(l, j), Payload(tile.begin(), tile.end()));
        }
      }
    }
    // Send-or-receive one published input tile; publication order (A rows
    // ascending, then B columns ascending) is the globally consistent
    // receive order that keeps the forwarding collectives deadlock-free.
    const auto exchange = [&](std::int64_t tag, NodeId root,
                              const std::vector<int>& dests) {
      if (root == self) {
        comm::multicast_send(ctx, config, tag, inputs.at(tag), dests);
      } else if (in_group(self, dests)) {
        inputs.emplace(tag, comm::multicast_recv(ctx, config, tag,
                                                 static_cast<int>(root),
                                                 dests));
      }
    };

    for (std::int64_t l = 0; l < k; ++l) {
      for (std::int64_t i = 0; i < t; ++i)
        exchange(a_tag(i, l), owner_a(i, l), a_group(i, l));
      for (std::int64_t j = 0; j < t; ++j)
        exchange(b_tag(l, j), owner_b(l, j), b_group(l, j));
      // Accumulate owned C tiles; all inputs are local by now.
      for (std::int64_t i = 0; i < t; ++i) {
        for (std::int64_t j = 0; j < t; ++j) {
          if (dist.owner(i, j) != self) continue;
          linalg::gemm(1.0, inputs.at(a_tag(i, l)), false,
                       inputs.at(b_tag(l, j)), false, 1.0, store.get(i, j),
                       nb);
        }
      }
    }

    {
      const auto traffic = ctx.traffic();
      update_messages[static_cast<std::size_t>(self)] = traffic.messages_sent;
      update_received[static_cast<std::size_t>(self)] =
          traffic.messages_received;
    }
    // Gather above the input bands.
    detail::gather_to_root(store, ctx, t, dist, /*lower_only=*/false,
                           result.factored, out_mutex, 2 * t * k);
  }, recorder, injector);

  result.ok = true;
  for (const auto count : update_messages) result.tile_messages += count;
  for (const auto count : update_received)
    result.tile_messages_received += count;
  return result;
}

}  // namespace anyblock::dist
