// Randomized stress tests for the message-passing layer: many ranks, many
// tags, interleaved out-of-order receives — checksum-verified.
#include <gtest/gtest.h>

#include <atomic>

#include "util/rng.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::vmpi {
namespace {

TEST(VmpiStress, AllToAllWithPerPairChecksums) {
  constexpr int kRanks = 8;
  constexpr int kMessagesPerPair = 25;
  std::atomic<std::int64_t> mismatches{0};

  const RunReport report = run_ranks(kRanks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    // Send kMessagesPerPair payloads to every other rank, tagged by
    // sequence; the payload encodes (source, destination, sequence).
    for (int dest = 0; dest < kRanks; ++dest) {
      if (dest == self) continue;
      for (int seq = 0; seq < kMessagesPerPair; ++seq) {
        ctx.send(dest, seq,
                 {static_cast<double>(self), static_cast<double>(dest),
                  static_cast<double>(seq)});
      }
    }
    // Receive in a scrambled order: sequences descending, sources rotated.
    // Each rank draws from its own split stream — additive seeds would give
    // the ranks correlated (shifted) schedules.
    Rng rng = Rng::for_stream(99, static_cast<std::uint64_t>(self));
    for (int seq = kMessagesPerPair - 1; seq >= 0; --seq) {
      for (int offset = 1; offset < kRanks; ++offset) {
        const int source = (self + offset) % kRanks;
        const Payload data = ctx.recv(source, seq);
        if (data.size() != 3 || data[0] != source || data[1] != self ||
            data[2] != seq) {
          ++mismatches;
        }
      }
    }
  });

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(report.total_messages(),
            static_cast<std::int64_t>(kRanks) * (kRanks - 1) *
                kMessagesPerPair);
}

TEST(VmpiStress, RingPipelineManyRounds) {
  constexpr int kRanks = 6;
  constexpr int kRounds = 200;
  run_ranks(kRanks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    const int next = (self + 1) % kRanks;
    const int prev = (self + kRanks - 1) % kRanks;
    double token = self;
    for (int round = 0; round < kRounds; ++round) {
      ctx.send(next, round, {token});
      token = ctx.recv(prev, round)[0] + 1.0;
    }
    // Each round the token advances one hop and gains +1; after kRounds
    // rounds, rank r holds the value started by rank (r - kRounds) mod P
    // plus kRounds.
    const double expected =
        static_cast<double>((self - kRounds % kRanks + kRanks) % kRanks) +
        kRounds;
    EXPECT_DOUBLE_EQ(token, expected);
  });
}

TEST(VmpiStress, LargePayloadsSurviveIntact) {
  constexpr int kDoubles = 1 << 16;  // 512 KiB per message
  run_ranks(2, [&](RankContext& ctx) {
    if (ctx.rank() == 0) {
      Payload big(kDoubles);
      for (std::size_t k = 0; k < big.size(); ++k)
        big[k] = static_cast<double>(k % 1024);
      ctx.send(1, 0, std::move(big));
    } else {
      const Payload got = ctx.recv(0, 0);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kDoubles));
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_DOUBLE_EQ(got[k], static_cast<double>(k % 1024));
      }
    }
  });
}

}  // namespace
}  // namespace anyblock::vmpi
