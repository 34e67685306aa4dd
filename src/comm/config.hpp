// Collective configuration shared by every execution layer.
//
// The paper's runtime sends each tile point-to-point to every distinct
// consumer node (Section II-C), so message count equals communication
// volume (Eq. 1/2).  comm generalizes that into a pluggable tile-multicast
// abstraction with three interchangeable algorithms; the same
// CollectiveConfig drives the real vmpi execution (comm/multicast),
// the discrete-event simulator (sim), and the closed-form message-count
// predictions (core/cost), which is what keeps the three layers mutually
// verifiable: measured == simulated == predicted, per algorithm.
//
// This header is dependency-free on purpose: core/cost includes it without
// pulling in the message-passing layer.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace anyblock::comm {

enum class Algorithm : std::uint8_t {
  /// The producer sends one point-to-point message per distinct consumer
  /// node — today's Chameleon behavior (paper, Section II-C).
  kEagerP2P,
  /// Receivers forward: the group forms a binomial tree rooted at the
  /// producer, so the critical path shrinks from d to ceil(log2(d + 1))
  /// hops while the total message count stays d.
  kBinomialTree,
  /// The payload is cut into fixed-count chunks forwarded along a chain of
  /// the d consumers; chunk k overlaps with chunk k+1 (a pipelined
  /// store-and-forward ring segment).  d * chunks messages, critical path
  /// d + chunks - 1 chunk-hops.
  kPipelinedChain,
};

struct CollectiveConfig {
  Algorithm algorithm = Algorithm::kEagerP2P;
  /// Chunks a payload is split into under kPipelinedChain (>= 1).  Chunk
  /// count is fixed by config, never by payload size, so the message-count
  /// prediction stays exact even for payloads smaller than the chunk count
  /// (trailing chunks are simply empty).
  std::int64_t chain_chunks = 4;
};

/// Short stable names: "p2p", "tree", "chain".
std::string algorithm_name(Algorithm algorithm);

/// Parses an algorithm name; throws std::invalid_argument on unknown input.
Algorithm parse_algorithm(std::string_view name);

/// Messages needed to multicast one payload from its producer to
/// `receivers` distinct consumer nodes:
///   p2p:   receivers            (one eager send per consumer)
///   tree:  receivers            (one tile per tree edge)
///   chain: receivers * chunks   (every chain link carries every chunk)
std::int64_t multicast_messages(std::int64_t receivers,
                                const CollectiveConfig& config);

/// Longest dependency chain of the multicast, in link-serialized sends:
///   p2p:   receivers (all sends serialize through the producer's NIC)
///   tree:  ceil(log2(receivers + 1))
///   chain: receivers + chunks - 1 (pipelined)
std::int64_t multicast_critical_path(std::int64_t receivers,
                                     const CollectiveConfig& config);

/// Binomial-tree children of `position` in a group of `m` holders (the
/// root holds position 0): every position + 2^k with 2^k > position still
/// inside the group.  The one tree rule: comm's real multicast and sim's
/// modelled one both forward along it.
template <typename Fn>
void for_each_tree_child(std::int64_t position, std::int64_t m, Fn&& fn) {
  for (std::int64_t step = 1; step < m; step *= 2) {
    if (step <= position) continue;
    const std::int64_t child = position + step;
    if (child >= m) break;
    fn(child);
  }
}

}  // namespace anyblock::comm
