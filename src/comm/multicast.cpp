#include "comm/multicast.hpp"

#include <algorithm>
#include <stdexcept>

namespace anyblock::comm {

namespace {

using vmpi::Payload;
using vmpi::RankContext;

/// Binomial-tree parent: strip the highest set bit of the position.
std::int64_t tree_parent(std::int64_t position) {
  std::int64_t bit = 1;
  while (bit * 2 <= position) bit *= 2;
  return position - bit;
}

/// 1-based position of the calling rank in the destination list (the root
/// holds position 0).
std::int64_t position_of(int self, const std::vector<int>& dests) {
  const auto it = std::find(dests.begin(), dests.end(), self);
  if (it == dests.end())
    throw std::invalid_argument(
        "multicast_recv: calling rank is not in the destination list");
  return (it - dests.begin()) + 1;
}

/// Rank sitting at tree/chain position p (position 0 is the root).
int rank_at(std::int64_t position, int root, const std::vector<int>& dests) {
  if (position == 0) return root;
  return dests[static_cast<std::size_t>(position - 1)];
}

/// Chunk k of an n-double payload covers [k*n/chunks, (k+1)*n/chunks);
/// chunk count is fixed by config, so trailing chunks may be empty when the
/// payload is shorter than the chunk count.
Payload chunk_of(const Payload& data, std::int64_t k, std::int64_t chunks) {
  const auto n = static_cast<std::int64_t>(data.size());
  const std::int64_t begin = k * n / chunks;
  const std::int64_t end = (k + 1) * n / chunks;
  return Payload(data.begin() + begin, data.begin() + end);
}

void check_chunks(const CollectiveConfig& config) {
  if (config.chain_chunks < 1)
    throw std::invalid_argument("chain_chunks must be >= 1");
}

}  // namespace

void multicast_send(RankContext& ctx, const CollectiveConfig& config,
                    std::int64_t tag, const Payload& data,
                    const std::vector<int>& dests) {
  if (dests.empty()) return;
  const auto d = static_cast<std::int64_t>(dests.size());
  switch (config.algorithm) {
    case Algorithm::kEagerP2P:
      ctx.multisend(dests, tag, data);
      return;
    case Algorithm::kBinomialTree:
      for_each_tree_child(0, d + 1, [&](std::int64_t child) {
        ctx.send(rank_at(child, ctx.rank(), dests), tag, data);
      });
      return;
    case Algorithm::kPipelinedChain: {
      check_chunks(config);
      // vmpi delivers equal-(source, tag) messages in send order, so the
      // chunks need no per-chunk tags.
      for (std::int64_t k = 0; k < config.chain_chunks; ++k)
        ctx.send(dests.front(), tag, chunk_of(data, k, config.chain_chunks));
      return;
    }
  }
  throw std::invalid_argument("unknown collective algorithm");
}

Payload multicast_recv(RankContext& ctx, const CollectiveConfig& config,
                       std::int64_t tag, int root,
                       const std::vector<int>& dests) {
  const auto d = static_cast<std::int64_t>(dests.size());
  const std::int64_t position = position_of(ctx.rank(), dests);
  switch (config.algorithm) {
    case Algorithm::kEagerP2P:
      return ctx.recv(root, tag);
    case Algorithm::kBinomialTree: {
      const int parent = rank_at(tree_parent(position), root, dests);
      Payload data = ctx.recv(parent, tag);
      for_each_tree_child(position, d + 1, [&](std::int64_t child) {
        ctx.send(rank_at(child, root, dests), tag, data);
      });
      return data;
    }
    case Algorithm::kPipelinedChain: {
      check_chunks(config);
      const int pred = rank_at(position - 1, root, dests);
      const bool relay = position < d;
      Payload data;
      for (std::int64_t k = 0; k < config.chain_chunks; ++k) {
        Payload piece = ctx.recv(pred, tag);
        if (relay)
          ctx.send(dests[static_cast<std::size_t>(position)], tag, piece);
        data.insert(data.end(), piece.begin(), piece.end());
      }
      return data;
    }
  }
  throw std::invalid_argument("unknown collective algorithm");
}

}  // namespace anyblock::comm
