// The shared consumer rule (core/consumers.hpp) against an independent
// oracle: the materialized task graphs of tests/sim/oracle/, which record
// each published tile's consumer nodes from the tasks that read it.  At one
// layer, the builders publish in the same order as the walk, so the two are
// compared publication by publication:
//   * the same tiles, in the same order, with the same producer;
//   * the walk's distinct consumer owners (producer excluded) are the
//     builder's remote consumer nodes, as a set;
//   * for_each_fanout's receiver count is that set's size.
#include "core/consumers.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/g2dbc.hpp"
#include "core/gcrm.hpp"
#include "core/replicated.hpp"
#include "sim/oracle/materialized_workload.hpp"
#include "util/rng.hpp"

namespace anyblock::core {
namespace {

using Tile = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

void expect_rule_matches_builder(const Distribution& dist, std::int64_t t,
                                 bool symmetric) {
  sim::MachineConfig machine;
  machine.nodes = dist.num_nodes();
  const sim::Workload work =
      symmetric ? sim::build_cholesky_workload_25d(t, one_layer(dist), machine)
                : sim::build_lu_workload_25d(t, one_layer(dist), machine);

  std::vector<Tile> published;
  for (std::int64_t l = 0; l < t; ++l) {
    for_each_publication(t, symmetric, l, [&](std::int64_t i, std::int64_t j) {
      published.emplace_back(l, i, j);
    });
  }
  std::vector<std::int64_t> receivers;
  for_each_fanout(dist, t, symmetric,
                  [&](std::int64_t, NodeId, std::int64_t count) {
                    receivers.push_back(count);
                  });
  ASSERT_EQ(receivers.size(), published.size());

  std::size_t next = 0;
  for (const sim::SimTask& task : work.tasks) {
    if (task.publishes < 0) continue;
    ASSERT_LT(next, published.size());
    const auto [l, i, j] = published[next];
    SCOPED_TRACE("l = " + std::to_string(l) + ", tile (" + std::to_string(i) +
                 ", " + std::to_string(j) + ")");
    EXPECT_EQ(Tile(task.l, task.i, task.j), published[next]);
    const sim::Instance& instance =
        work.instances[static_cast<std::size_t>(task.publishes)];
    const NodeId producer = dist.owner(i, j);
    EXPECT_EQ(instance.producer_node, producer);

    std::set<NodeId> oracle;
    for (const sim::InstanceGroup& group : instance.groups)
      if (group.node != instance.producer_node) oracle.insert(group.node);
    std::set<NodeId> walk;
    for_each_consumer_owner(dist, t, symmetric, l, i, j, [&](NodeId node) {
      if (node != producer) walk.insert(node);
    });
    EXPECT_EQ(walk, oracle);
    EXPECT_EQ(receivers[next], static_cast<std::int64_t>(oracle.size()));
    ++next;
  }
  EXPECT_EQ(next, published.size());
}

void expect_rule_matches_builder(const Distribution& lu,
                                 const Distribution& cholesky,
                                 std::int64_t t) {
  {
    SCOPED_TRACE("LU, t = " + std::to_string(t));
    expect_rule_matches_builder(lu, t, /*symmetric=*/false);
  }
  {
    SCOPED_TRACE("Cholesky, t = " + std::to_string(t));
    expect_rule_matches_builder(cholesky, t, /*symmetric=*/true);
  }
}

constexpr std::int64_t kTiles[] = {1, 2, 5, 9};

TEST(ConsumerRule, MatchesBuildersOnG2dbc23) {
  const Pattern pattern = make_g2dbc(23);
  for (const std::int64_t t : kTiles) {
    expect_rule_matches_builder(PatternDistribution(pattern, t, false),
                                PatternDistribution(pattern, t, true), t);
  }
}

TEST(ConsumerRule, MatchesBuildersOnGcrmWithFreeDiagonal) {
  const GcrmResult result = gcrm_build(10, 5, 7);
  ASSERT_TRUE(result.valid);
  ASSERT_FALSE(result.pattern.is_complete());
  for (const std::int64_t t : kTiles) {
    expect_rule_matches_builder(PatternDistribution(result.pattern, t, false),
                                PatternDistribution(result.pattern, t, true),
                                t);
  }
}

TEST(ConsumerRule, MatchesBuildersOnRandomExplicitDistribution) {
  Rng rng(2023);
  const std::int64_t nodes = 7;
  for (const std::int64_t t : kTiles) {
    std::vector<NodeId> owners(static_cast<std::size_t>(t * t));
    for (auto& owner : owners)
      owner = static_cast<NodeId>(
          rng.below(static_cast<std::uint64_t>(nodes)));
    const ExplicitDistribution dist(std::move(owners), t, nodes);
    expect_rule_matches_builder(dist, dist, t);
  }
}

}  // namespace
}  // namespace anyblock::core
