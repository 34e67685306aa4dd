#include "dist/dist_factorization.hpp"

#include <algorithm>
#include <mutex>

#include "dist/rank_helpers.hpp"

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

}  // namespace anyblock::dist
