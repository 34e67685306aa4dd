// Golden + property tests for the 2.5D replicated distributed path
// (dist_factorization_25d.cpp).
//
//  * c = 1 is bit-identical to the plain 2D run: same factored tiles, same
//    per-rank message counts, under every collective — checked against
//    digests pinned from the dedicated 2D rank drivers.
//  * c > 1: numerically correct (residual), deterministic across repeat
//    runs (fixed ascending-layer reduce order), and the measured traffic
//    equals the 2.5D closed forms exactly.
//  * Fault-injected runs recover bit-identically to clean runs, with the
//    post-dedup consumed count unchanged.
#include "dist/dist_factorization.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "fault/fault.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/verify.hpp"
#include "util/rng.hpp"

#include "digest.hpp"

namespace anyblock::dist {
namespace {

using core::PatternDistribution;
using core::ReplicatedDistribution;
using linalg::TiledMatrix;

constexpr std::int64_t kNb = 4;

ReplicatedDistribution replicated(std::int64_t base_nodes, std::int64_t t,
                                  bool symmetric, std::int64_t layers) {
  return ReplicatedDistribution(
      std::make_shared<PatternDistribution>(core::make_g2dbc(base_nodes), t,
                                            symmetric),
      layers);
}

void expect_same_tiles(const TiledMatrix& a, const TiledMatrix& b,
                       bool lower_only) {
  ASSERT_EQ(a.tiles(), b.tiles());
  for (std::int64_t i = 0; i < a.tiles(); ++i) {
    const std::int64_t j_end = lower_only ? i + 1 : a.tiles();
    for (std::int64_t j = 0; j < j_end; ++j) {
      const auto ta = a.tile(i, j);
      const auto tb = b.tile(i, j);
      for (std::size_t e = 0; e < ta.size(); ++e)
        ASSERT_EQ(ta[e], tb[e]) << i << "," << j << "[" << e << "]";
    }
  }
}

comm::CollectiveConfig config_for(comm::Algorithm algorithm) {
  comm::CollectiveConfig config;
  config.algorithm = algorithm;
  config.chain_chunks = 3;
  return config;
}

/// Pinned digest of one distributed run: the factor's tiles and every
/// rank's sent/received counts (gather included).
struct DistDigest {
  std::uint64_t factor;
  std::uint64_t per_rank;
  std::int64_t tile_messages;
  std::int64_t tile_messages_received;
};

std::string format(const DistDigest& d) {
  std::ostringstream out;
  out << std::hex << "{0x" << d.factor << "ull, 0x" << d.per_rank << "ull, "
      << std::dec << d.tile_messages << ", " << d.tile_messages_received
      << "}";
  return out.str();
}

DistDigest digest_of(const DistRunResult& result, bool lower_only) {
  testing_digest::Digest factor;
  const TiledMatrix& m = result.factored;
  for (std::int64_t i = 0; i < m.tiles(); ++i) {
    const std::int64_t j_end = lower_only ? i + 1 : m.tiles();
    for (std::int64_t j = 0; j < j_end; ++j)
      for (const double value : m.tile(i, j)) factor.add(value);
  }
  testing_digest::Digest per_rank;
  for (const auto& rank : result.report.per_rank)
    per_rank.add(rank.messages_sent).add(rank.messages_received);
  return {factor.value(), per_rank.value(), result.tile_messages,
          result.tile_messages_received};
}

struct PinnedRun {
  const char* key;  ///< "<kernel> <collective>", G-2DBC P = 7, t = 10
  DistDigest digest;
};

/// Recorded from the dedicated 2D rank drivers, before 2D became the
/// one-layer case of the 2.5D driver.  Both the 2D entry points and the
/// 2.5D entry points at c = 1 must reproduce them bit for bit.
const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> rows = {
      {"lu p2p",
       {0xcd8f79d361057f82ull, 0x602cbc7c1f4a6full, 178, 178}},
      {"cholesky p2p",
       {0x82b5a90abba23232ull, 0x6852a30a1f6d3855ull, 134, 134}},
      {"lu tree",
       {0xcd8f79d361057f82ull, 0x5e5df5d8db2fd219ull, 178, 178}},
      {"cholesky tree",
       {0x82b5a90abba23232ull, 0x4881a799bb4c0557ull, 134, 134}},
      {"lu chain",
       {0xcd8f79d361057f82ull, 0xc73da17e88babdb5ull, 534, 534}},
      {"cholesky chain",
       {0x82b5a90abba23232ull, 0x2211515dec95970bull, 402, 402}},
  };
  return rows;
}

void expect_pinned(const std::string& key, const DistRunResult& flat,
                   const DistRunResult& layered, bool lower_only) {
  SCOPED_TRACE(key);
  ASSERT_TRUE(flat.ok);
  ASSERT_TRUE(layered.ok);
  const PinnedRun* pinned = nullptr;
  for (const PinnedRun& row : pinned_runs())
    if (key == row.key) pinned = &row;
  ASSERT_NE(pinned, nullptr) << "unpinned: {\"" << key << "\", "
                             << format(digest_of(flat, lower_only)) << "},";
  EXPECT_EQ(format(digest_of(flat, lower_only)), format(pinned->digest));
  EXPECT_EQ(format(digest_of(layered, lower_only)), format(pinned->digest));
}

TEST(Dist25dGolden, OneLayerBitIdenticalTo2d) {
  const std::int64_t t = 10;
  Rng rng(7);
  const linalg::DenseMatrix original = linalg::diag_dominant_matrix(t * kNb,
                                                                    rng);
  const TiledMatrix input = TiledMatrix::from_dense(original, kNb);
  Rng rng_spd(9);
  const linalg::DenseMatrix spd = linalg::spd_matrix(t * kNb, rng_spd);
  const TiledMatrix spd_input = TiledMatrix::from_dense(spd, kNb);

  for (const comm::Algorithm algorithm :
       {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
        comm::Algorithm::kPipelinedChain}) {
    const std::string name = comm::algorithm_name(algorithm);
    const auto config = config_for(algorithm);
    {
      const PatternDistribution base(core::make_g2dbc(7), t, false);
      const ReplicatedDistribution stacked = replicated(7, t, false, 1);
      expect_pinned("lu " + name, distributed_lu(input, base, config),
                    distributed_lu_25d(input, stacked, config),
                    /*lower_only=*/false);
    }
    {
      const PatternDistribution base(core::make_g2dbc(7), t, true);
      const ReplicatedDistribution stacked = replicated(7, t, true, 1);
      expect_pinned("cholesky " + name,
                    distributed_cholesky(spd_input, base, config),
                    distributed_cholesky_25d(spd_input, stacked, config),
                    /*lower_only=*/true);
    }
  }
}

struct Case25d {
  const char* name;
  std::int64_t base_nodes;
  std::int64_t layers;
  std::int64_t t;
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const Case25d& c, std::ostream* os) { *os << c.name; }

class Dist25dTest : public ::testing::TestWithParam<Case25d> {};

TEST_P(Dist25dTest, LuResidualCountsAndDeterminism) {
  const auto& param = GetParam();
  Rng rng(7);
  const linalg::DenseMatrix original =
      linalg::diag_dominant_matrix(param.t * kNb, rng);
  const TiledMatrix input = TiledMatrix::from_dense(original, kNb);
  const ReplicatedDistribution dist =
      replicated(param.base_nodes, param.t, false, param.layers);

  for (const comm::Algorithm algorithm :
       {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
        comm::Algorithm::kPipelinedChain}) {
    SCOPED_TRACE(comm::algorithm_name(algorithm));
    const auto config = config_for(algorithm);
    const DistRunResult result = distributed_lu_25d(input, dist, config);
    ASSERT_TRUE(result.ok);
    EXPECT_LT(linalg::lu_residual(original, result.factored), 1e-12);
    EXPECT_EQ(result.tile_messages,
              core::exact_lu_messages_25d(dist, param.t, config));
    EXPECT_EQ(result.tile_messages_received, result.tile_messages);
    if (algorithm == comm::Algorithm::kEagerP2P)
      EXPECT_EQ(result.tile_messages,
                core::exact_lu_volume_25d(dist, param.t));
    // Ascending-layer reduces make the summation order fixed: a repeat run
    // must reproduce the factor bit for bit.
    const DistRunResult again = distributed_lu_25d(input, dist, config);
    expect_same_tiles(result.factored, again.factored, /*lower_only=*/false);
  }
}

TEST_P(Dist25dTest, CholeskyResidualCountsAndDeterminism) {
  const auto& param = GetParam();
  Rng rng(9);
  const linalg::DenseMatrix original = linalg::spd_matrix(param.t * kNb, rng);
  const TiledMatrix input = TiledMatrix::from_dense(original, kNb);
  const ReplicatedDistribution dist =
      replicated(param.base_nodes, param.t, true, param.layers);

  for (const comm::Algorithm algorithm :
       {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
        comm::Algorithm::kPipelinedChain}) {
    SCOPED_TRACE(comm::algorithm_name(algorithm));
    const auto config = config_for(algorithm);
    const DistRunResult result =
        distributed_cholesky_25d(input, dist, config);
    ASSERT_TRUE(result.ok);
    EXPECT_LT(linalg::cholesky_residual(original, result.factored), 1e-12);
    EXPECT_EQ(result.tile_messages,
              core::exact_cholesky_messages_25d(dist, param.t, config));
    EXPECT_EQ(result.tile_messages_received, result.tile_messages);
    if (algorithm == comm::Algorithm::kEagerP2P)
      EXPECT_EQ(result.tile_messages,
                core::exact_cholesky_volume_25d(dist, param.t));
    const DistRunResult again = distributed_cholesky_25d(input, dist, config);
    expect_same_tiles(result.factored, again.factored, /*lower_only=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Dist25dTest,
    ::testing::Values(Case25d{"c2_p3", 3, 2, 8}, Case25d{"c2_p4", 4, 2, 10},
                      Case25d{"c3_p3", 3, 3, 9}, Case25d{"c4_p2", 2, 4, 12}),
    [](const ::testing::TestParamInfo<Case25d>& info) {
      return info.param.name;
    });

TEST(Dist25dFaults, RecoversBitIdenticallyWithCleanCounts) {
  // Drops/duplicates/delays on the wire; at-least-once delivery plus
  // sequence dedup must leave the factored tiles and the *consumed*
  // message count identical to a fault-free run.
  const std::int64_t t = 8;
  Rng rng(7);
  const linalg::DenseMatrix original =
      linalg::diag_dominant_matrix(t * kNb, rng);
  const TiledMatrix input = TiledMatrix::from_dense(original, kNb);
  const ReplicatedDistribution dist = replicated(3, t, false, 2);
  const auto config = config_for(comm::Algorithm::kEagerP2P);

  const DistRunResult clean = distributed_lu_25d(input, dist, config);
  ASSERT_TRUE(clean.ok);

  fault::FaultPlan plan;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.delay = 0.02;
  plan.delay_ms = 1;
  plan.recv_timeout_ms = 25;
  plan.max_retries = 12;
  plan.seed = 42;
  fault::FaultInjector injector(plan);
  const DistRunResult faulted =
      distributed_lu_25d(input, dist, config, nullptr, &injector);
  ASSERT_TRUE(faulted.ok);
  expect_same_tiles(clean.factored, faulted.factored, /*lower_only=*/false);
  EXPECT_EQ(faulted.tile_messages_received, clean.tile_messages_received);
}

}  // namespace
}  // namespace anyblock::dist
