// Golden equivalence + property wall for the 2.5D replicated schedule.
//
// The contract under test (core/replicated.hpp, sim/workload_25d.hpp):
//  * c = 1 is *bit-identical* to the plain 2D path — same trajectory, same
//    per-node counters, same obs metric rows, same task graph — for every
//    distribution family and collective, on the implicit generator and on
//    its materialized test oracle (tests/sim/oracle/) run through
//    sim::simulate.  The reference is a set of digests pinned from the
//    dedicated 2D generators.
//  * For any (P_b, c, t) the implicit generator's closed forms reproduce
//    the materialized 2.5D oracle task-for-task, instance-for-instance.
//  * Measured communication equals the closed forms exactly
//    (core/cost.hpp) and never undercuts the parallel-I/O lower bound
//    (core/bounds.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "comm/config.hpp"
#include "comm/multicast.hpp"
#include "core/block_cyclic.hpp"
#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/pattern_search.hpp"
#include "core/replicated.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/oracle/materialized_workload.hpp"
#include "sim/workload.hpp"
#include "sim/workload_25d.hpp"
#include "util/hash.hpp"

#include "digest.hpp"

namespace anyblock::sim {
namespace {

struct DistCase {
  const char* name;
  core::Pattern pattern;
  std::int64_t base_nodes;
};

std::vector<DistCase> dist_cases() {
  core::GcrmSearchOptions options;
  options.seeds = 5;
  const core::GcrmSearchResult gcrm = core::gcrm_search(31, options);
  EXPECT_TRUE(gcrm.found);
  return {{"g2dbc_p23", core::make_g2dbc(23), 23},
          {"gcrm_p31", gcrm.best, 31},
          {"2dbc_4x3", core::make_2dbc(4, 3), 12}};
}

core::ReplicatedDistribution replicate(const DistCase& dist, std::int64_t t,
                                       bool symmetric, std::int64_t layers) {
  return core::ReplicatedDistribution(
      std::make_shared<core::PatternDistribution>(dist.pattern, t, symmetric),
      layers);
}

MachineConfig machine_for(std::int64_t nodes, comm::Algorithm algorithm) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = 4;
  machine.collective.algorithm = algorithm;
  machine.collective.chain_chunks = 3;
  return machine;
}

constexpr std::int64_t kT = 20;

/// Which side runs: the oracle graph through sim::simulate, or the
/// generator behind the kernel entry points.
enum class Path { kMaterialized, kImplicit };

/// LU or Cholesky on `dist` along `path`.
SimReport run_25d(bool symmetric, std::int64_t t,
                  const core::ReplicatedDistribution& dist,
                  const MachineConfig& machine, Path path) {
  if (path == Path::kImplicit)
    return symmetric ? simulate_cholesky_25d(t, dist, machine)
                     : simulate_lu_25d(t, dist, machine);
  return simulate(symmetric ? build_cholesky_workload_25d(t, dist, machine)
                            : build_lu_workload_25d(t, dist, machine),
                  machine);
}

/// The 2D entry points (simulate_lu/simulate_cholesky) along `path`; the
/// oracle's 2D graph is its one-layer graph.
SimReport run_2d(bool symmetric, std::int64_t t,
                 const core::PatternDistribution& base,
                 const MachineConfig& machine, Path path) {
  if (path == Path::kMaterialized)
    return run_25d(symmetric, t, core::one_layer(base), machine, path);
  return symmetric ? simulate_cholesky(t, base, machine)
                   : simulate_lu(t, base, machine);
}

void expect_identical_reports(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_NEAR(a.total_flops, b.total_flops, 1e-9 * a.total_flops);
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (std::size_t n = 0; n < a.per_node.size(); ++n) {
    EXPECT_EQ(a.per_node[n].busy_seconds, b.per_node[n].busy_seconds) << n;
    EXPECT_EQ(a.per_node[n].tasks, b.per_node[n].tasks) << n;
    EXPECT_EQ(a.per_node[n].messages_sent, b.per_node[n].messages_sent) << n;
    EXPECT_EQ(a.per_node[n].bytes_sent, b.per_node[n].bytes_sent) << n;
  }
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.duplicates, b.faults.duplicates);
  EXPECT_EQ(a.faults.delays, b.faults.delays);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.timeout_waits, b.faults.timeout_waits);
  EXPECT_EQ(a.faults.dedup_discards, b.faults.dedup_discards);
}

// ---------------------------------------------------------------------------
// Golden: one layer *is* the 2D schedule, bit for bit.
//
// The literals below were recorded from the dedicated 2D LU/Cholesky
// generators, before 2D became the one-layer case of the 2.5D schedule.
// They keep a reference from outside the code under test: the 2D entry
// points (simulate_lu/simulate_cholesky, now one-layer forwards) and the
// 2.5D entry points at c = 1 must reproduce them exactly.  A row that is
// missing prints the digest the code produced, in the table's own syntax.

struct SimDigest {
  std::uint64_t makespan_bits;
  std::int64_t events;
  std::int64_t messages;
  std::uint64_t flops_bits;
  std::int64_t frontier_peak;
  std::uint64_t per_node;  ///< FNV-1a of every per-node counter
};

std::string format(const SimDigest& d) {
  std::ostringstream out;
  out << std::hex << "{0x" << d.makespan_bits << "ull, " << std::dec
      << d.events << ", " << d.messages << ", " << std::hex << "0x"
      << d.flops_bits << "ull, " << std::dec << d.frontier_peak << ", "
      << std::hex << "0x" << d.per_node << "ull}";
  return out.str();
}

std::string format_hash(std::uint64_t hash) {
  std::ostringstream out;
  out << std::hex << "0x" << hash << "ull";
  return out.str();
}

SimDigest digest_of(const SimReport& report) {
  testing_digest::Digest per_node;
  for (const NodeReport& node : report.per_node)
    per_node.add(node.busy_seconds)
        .add(node.tasks)
        .add(node.messages_sent)
        .add(node.bytes_sent);
  return {testing_digest::Digest::bits(report.makespan_seconds),
          report.events,
          report.messages,
          testing_digest::Digest::bits(report.total_flops),
          report.frontier_peak,
          per_node.value()};
}

/// FNV-1a over every field of the materialized task and instance tables.
std::uint64_t graph_digest(const Workload& work) {
  testing_digest::Digest digest;
  digest.add(work.total_flops);
  for (const SimTask& task : work.tasks)
    digest.add(static_cast<std::int64_t>(task.type))
        .add(task.l)
        .add(task.i)
        .add(task.j)
        .add(task.node)
        .add(task.deps)
        .add(task.successor)
        .add(task.publishes);
  for (const Instance& instance : work.instances) {
    digest.add(instance.producer_node)
        .add(static_cast<std::int64_t>(instance.groups.size()));
    for (const InstanceGroup& group : instance.groups) {
      digest.add(group.node).add(
          static_cast<std::int64_t>(group.waiters.size()));
      for (const std::int64_t waiter : group.waiters) digest.add(waiter);
    }
  }
  return digest.value();
}

template <class Row>
const Row* find_pinned(const std::vector<Row>& rows, const std::string& key) {
  for (const Row& row : rows)
    if (key == row.key) return &row;
  return nullptr;
}

struct PinnedTrajectory {
  const char* key;  ///< "<dist> <kernel> <collective> <workload mode>"
  SimDigest digest;
};

const std::vector<PinnedTrajectory>& pinned_trajectories() {
  static const std::vector<PinnedTrajectory> rows = {
      {"g2dbc_p23 lu p2p materialized",
       {0x3fd221724a52200eull, 4415, 1545, 0x4263670dc1555559ull,
        2870, 0x68895f2717b2a851ull}},
      {"g2dbc_p23 lu p2p implicit",
       {0x3fd221724a52200eull, 4415, 1545, 0x4263670dc1555558ull,
        356, 0x68895f2717b2a851ull}},
      {"g2dbc_p23 lu tree materialized",
       {0x3fd1ce9f522cb8dbull, 4415, 1545, 0x4263670dc1555559ull,
        2870, 0xcf02c7c077489117ull}},
      {"g2dbc_p23 lu tree implicit",
       {0x3fd1ce9f522cb8dbull, 4415, 1545, 0x4263670dc1555558ull,
        367, 0xcf02c7c077489117ull}},
      {"g2dbc_p23 lu chain materialized",
       {0x3fd1389af063972cull, 7505, 4635, 0x4263670dc1555559ull,
        2870, 0x2546a66647209e23ull}},
      {"g2dbc_p23 lu chain implicit",
       {0x3fd1389af063972cull, 7505, 4635, 0x4263670dc1555558ull,
        368, 0x2546a66647209e23ull}},
      {"g2dbc_p23 cholesky p2p materialized",
       {0x3fc9600f13c6c732ull, 2764, 1224, 0x425367c2f40d5559ull,
        1540, 0xac99894dc9c29521ull}},
      {"g2dbc_p23 cholesky p2p implicit",
       {0x3fc9600f13c6c732ull, 2764, 1224, 0x425367c2f40d5558ull,
        167, 0xac99894dc9c29521ull}},
      {"g2dbc_p23 cholesky tree materialized",
       {0x3fc657237828e5f1ull, 2764, 1224, 0x425367c2f40d5559ull,
        1540, 0xd839f373ef8f37e0ull}},
      {"g2dbc_p23 cholesky tree implicit",
       {0x3fc657237828e5f1ull, 2764, 1224, 0x425367c2f40d5558ull,
        158, 0xd839f373ef8f37e0ull}},
      {"g2dbc_p23 cholesky chain materialized",
       {0x3fc60b64707b4b7full, 5212, 3672, 0x425367c2f40d5559ull,
        1540, 0x92cba81d24a0de62ull}},
      {"g2dbc_p23 cholesky chain implicit",
       {0x3fc60b64707b4b7full, 5212, 3672, 0x425367c2f40d5558ull,
        168, 0x92cba81d24a0de62ull}},
      {"gcrm_p31 lu p2p materialized",
       {0x3fd39b5e341aa607ull, 5029, 2159, 0x4263670dc1555559ull,
        2870, 0x2cecbc6d7cd5bfb3ull}},
      {"gcrm_p31 lu p2p implicit",
       {0x3fd39b5e341aa607ull, 5029, 2159, 0x4263670dc1555558ull,
        334, 0x2cecbc6d7cd5bfb3ull}},
      {"gcrm_p31 lu tree materialized",
       {0x3fd2b57378d1afeaull, 5029, 2159, 0x4263670dc1555559ull,
        2870, 0xc13388743d95c99aull}},
      {"gcrm_p31 lu tree implicit",
       {0x3fd2b57378d1afeaull, 5029, 2159, 0x4263670dc1555558ull,
        296, 0xc13388743d95c99aull}},
      {"gcrm_p31 lu chain materialized",
       {0x3fd236e76e3240bbull, 9347, 6477, 0x4263670dc1555559ull,
        2870, 0x4a0a4f00c8681d1eull}},
      {"gcrm_p31 lu chain implicit",
       {0x3fd236e76e3240bbull, 9347, 6477, 0x4263670dc1555558ull,
        304, 0x4a0a4f00c8681d1eull}},
      {"gcrm_p31 cholesky p2p materialized",
       {0x3fc6ae97c640bafaull, 2657, 1117, 0x425367c2f40d5559ull,
        1540, 0x2fe42de82cc69460ull}},
      {"gcrm_p31 cholesky p2p implicit",
       {0x3fc6ae97c640bafaull, 2657, 1117, 0x425367c2f40d5558ull,
        142, 0x2fe42de82cc69460ull}},
      {"gcrm_p31 cholesky tree materialized",
       {0x3fc629a485cd7b89ull, 2657, 1117, 0x425367c2f40d5559ull,
        1540, 0xd337004f0b4afb78ull}},
      {"gcrm_p31 cholesky tree implicit",
       {0x3fc629a485cd7b89ull, 2657, 1117, 0x425367c2f40d5558ull,
        152, 0xd337004f0b4afb78ull}},
      {"gcrm_p31 cholesky chain materialized",
       {0x3fc5a9d543fbf24full, 4891, 3351, 0x425367c2f40d5559ull,
        1540, 0x2ead6fe0dd8a21full}},
      {"gcrm_p31 cholesky chain implicit",
       {0x3fc5a9d543fbf24full, 4891, 3351, 0x425367c2f40d5558ull,
        154, 0x2ead6fe0dd8a21full}},
      {"2dbc_4x3 lu p2p materialized",
       {0x3fd83515ac0c21b6ull, 3906, 1036, 0x4263670dc1555559ull,
        2870, 0x135344fbd8045ac0ull}},
      {"2dbc_4x3 lu p2p implicit",
       {0x3fd83515ac0c21b6ull, 3906, 1036, 0x4263670dc1555558ull,
        371, 0x135344fbd8045ac0ull}},
      {"2dbc_4x3 lu tree materialized",
       {0x3fd81307cfaa8c70ull, 3906, 1036, 0x4263670dc1555559ull,
        2870, 0x370908c17842c73bull}},
      {"2dbc_4x3 lu tree implicit",
       {0x3fd81307cfaa8c70ull, 3906, 1036, 0x4263670dc1555558ull,
        374, 0x370908c17842c73bull}},
      {"2dbc_4x3 lu chain materialized",
       {0x3fd7b0dffd795092ull, 5978, 3108, 0x4263670dc1555559ull,
        2870, 0xec307a34e171c8caull}},
      {"2dbc_4x3 lu chain implicit",
       {0x3fd7b0dffd795092ull, 5978, 3108, 0x4263670dc1555558ull,
        368, 0xec307a34e171c8caull}},
      {"2dbc_4x3 cholesky p2p materialized",
       {0x3fcfdc8f97e5a545ull, 2415, 875, 0x425367c2f40d5559ull,
        1540, 0xd27695a2e6db04f3ull}},
      {"2dbc_4x3 cholesky p2p implicit",
       {0x3fcfdc8f97e5a545ull, 2415, 875, 0x425367c2f40d5558ull,
        172, 0xd27695a2e6db04f3ull}},
      {"2dbc_4x3 cholesky tree materialized",
       {0x3fcd6f0d3f28887full, 2415, 875, 0x425367c2f40d5559ull,
        1540, 0xcd13842ffffffd6cull}},
      {"2dbc_4x3 cholesky tree implicit",
       {0x3fcd6f0d3f28887full, 2415, 875, 0x425367c2f40d5558ull,
        175, 0xcd13842ffffffd6cull}},
      {"2dbc_4x3 cholesky chain materialized",
       {0x3fcca7918fd95a65ull, 4165, 2625, 0x425367c2f40d5559ull,
        1540, 0xaca88d0d3c87d1e6ull}},
      {"2dbc_4x3 cholesky chain implicit",
       {0x3fcca7918fd95a65ull, 4165, 2625, 0x425367c2f40d5558ull,
        177, 0xaca88d0d3c87d1e6ull}},
  };
  return rows;
}

struct PinnedHash {
  const char* key;
  std::uint64_t hash;
};

/// Materialized task graphs, "<dist> <kernel>" at t = kT.
const std::vector<PinnedHash>& pinned_graphs() {
  static const std::vector<PinnedHash> rows = {
      {"g2dbc_p23 lu", 0x6ca2145cc47e9594ull},
      {"g2dbc_p23 cholesky", 0x72251f842e0b87f4ull},
      {"gcrm_p31 lu", 0x66f22de6ca3341b2ull},
      {"gcrm_p31 cholesky", 0x5cd48c4729f6db57ull},
      {"2dbc_4x3 lu", 0xbb290c58ef2ccea6ull},
      {"2dbc_4x3 cholesky", 0x9bf4fb3e0cc48e32ull},
  };
  return rows;
}

/// obs metric CSVs of G-2DBC P = 23, "<kernel> <workload mode>" at t = kT.
const std::vector<PinnedHash>& pinned_metric_csvs() {
  static const std::vector<PinnedHash> rows = {
      {"lu materialized", 0x4debf076c9dd2fcbull},
      {"lu implicit", 0x4debf076c9dd2fcbull},
      {"cholesky materialized", 0x34e5413ccbbaf31eull},
      {"cholesky implicit", 0x34e5413ccbbaf31eull},
  };
  return rows;
}

const char* mode_name(Path mode) {
  return mode == Path::kImplicit ? "implicit" : "materialized";
}

TEST(Golden25d, OneLayerMatches2dAcrossCollectivesAndModes) {
  for (const DistCase& dist : dist_cases()) {
    for (const bool symmetric : {false, true}) {
      for (const comm::Algorithm algorithm :
           {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
            comm::Algorithm::kPipelinedChain}) {
        for (const Path mode : {Path::kMaterialized, Path::kImplicit}) {
          const std::string key = std::string(dist.name) +
                                  (symmetric ? " cholesky " : " lu ") +
                                  comm::algorithm_name(algorithm) + " " +
                                  mode_name(mode);
          SCOPED_TRACE(key);
          const MachineConfig machine = machine_for(dist.base_nodes, algorithm);
          const core::PatternDistribution base(dist.pattern, kT, symmetric);
          const core::ReplicatedDistribution stacked =
              replicate(dist, kT, symmetric, 1);
          const SimReport flat = run_2d(symmetric, kT, base, machine, mode);
          const SimReport layered =
              run_25d(symmetric, kT, stacked, machine, mode);
          const PinnedTrajectory* pinned =
              find_pinned(pinned_trajectories(), key);
          if (pinned == nullptr) {
            ADD_FAILURE() << "unpinned: {\"" << key << "\", "
                          << format(digest_of(flat)) << "},";
            continue;
          }
          EXPECT_EQ(format(digest_of(flat)), format(pinned->digest));
          EXPECT_EQ(format(digest_of(layered)), format(pinned->digest));
        }
      }
    }
  }
}

TEST(Golden25d, OneLayerObsMetricRowsAreIdentical) {
  const DistCase dist{"g2dbc_p23", core::make_g2dbc(23), 23};
  for (const bool symmetric : {false, true}) {
    for (const Path mode : {Path::kMaterialized, Path::kImplicit}) {
      const std::string key =
          std::string(symmetric ? "cholesky " : "lu ") + mode_name(mode);
      SCOPED_TRACE(key);
      std::string csv[2];
      for (const bool layered : {false, true}) {
        obs::Recorder recorder;
        MachineConfig machine =
            machine_for(dist.base_nodes, comm::Algorithm::kEagerP2P);
        machine.recorder = &recorder;
        if (layered) {
          run_25d(symmetric, kT, replicate(dist, kT, symmetric, 1), machine,
                  mode);
        } else {
          const core::PatternDistribution base(dist.pattern, kT, symmetric);
          run_2d(symmetric, kT, base, machine, mode);
        }
        std::ostringstream out;
        obs::write_metrics_csv(out, recorder.take(), {});
        csv[layered] = out.str();
      }
      EXPECT_FALSE(csv[0].empty());
      const std::uint64_t hash = fnv1a64(csv[0]);
      const PinnedHash* pinned = find_pinned(pinned_metric_csvs(), key);
      if (pinned == nullptr) {
        ADD_FAILURE() << "unpinned: {\"" << key << "\", "
                      << format_hash(hash) << "},";
        continue;
      }
      EXPECT_EQ(format_hash(hash), format_hash(pinned->hash));
      EXPECT_EQ(format_hash(fnv1a64(csv[1])), format_hash(pinned->hash));
    }
  }
}

TEST(Golden25d, OneLayerMaterializedWorkloadIsTheSameGraph) {
  // Stronger than trajectory equality: the c = 1 builder emits the exact
  // task/instance tables the 2D builder did, field for field.
  MachineConfig machine;
  for (const DistCase& dist : dist_cases()) {
    machine.nodes = dist.base_nodes;
    for (const bool symmetric : {false, true}) {
      const std::string key =
          std::string(dist.name) + (symmetric ? " cholesky" : " lu");
      SCOPED_TRACE(key);
      const core::ReplicatedDistribution stacked =
          replicate(dist, kT, symmetric, 1);
      const Workload layered =
          symmetric ? build_cholesky_workload_25d(kT, stacked, machine)
                    : build_lu_workload_25d(kT, stacked, machine);
      const PinnedHash* pinned = find_pinned(pinned_graphs(), key);
      if (pinned == nullptr) {
        ADD_FAILURE() << "unpinned: {\"" << key << "\", "
                      << format_hash(graph_digest(layered)) << "},";
        continue;
      }
      EXPECT_EQ(format_hash(graph_digest(layered)),
                format_hash(pinned->hash));
    }
  }
}

TEST(Golden25d, FaultTrajectoriesMatchAcrossModesAtTwoLayers) {
  // Fault fates key off instance ordinals; the generator and the builder
  // agree on those at any layer count, so chaos runs stay bit-identical
  // across workload modes even with flush/reduce traffic in flight.
  for (const comm::Algorithm algorithm :
       {comm::Algorithm::kEagerP2P, comm::Algorithm::kPipelinedChain}) {
    SimReport reports[2];
    for (const Path mode : {Path::kMaterialized, Path::kImplicit}) {
      MachineConfig machine = machine_for(2 * 23, algorithm);
      machine.faults.drop = 0.05;
      machine.faults.duplicate = 0.03;
      machine.faults.delay = 0.05;
      machine.faults.link_jitter = 0.2;
      machine.faults.seed = 7;
      const DistCase dist{"g2dbc_p23", core::make_g2dbc(23), 23};
      const core::ReplicatedDistribution stacked =
          replicate(dist, kT, false, 2);
      reports[mode == Path::kImplicit] =
          run_25d(false, kT, stacked, machine, mode);
    }
    expect_identical_reports(reports[0], reports[1]);
    EXPECT_GT(reports[0].faults.drops, 0);
  }
}

// ---------------------------------------------------------------------------
// Structure: generator closed forms == materialized builder at any c.

void expect_same_structure(const Workload& work, Implicit25dWorkload& model) {
  ASSERT_EQ(work.task_count(), model.task_count());
  ASSERT_EQ(static_cast<std::int64_t>(work.instances.size()),
            model.instance_count());
  EXPECT_NEAR(work.total_flops, model.total_flops(),
              1e-9 * (work.total_flops + 1.0));
  for (std::int64_t id = 0; id < work.task_count(); ++id) {
    const SimTask& task = work.tasks[static_cast<std::size_t>(id)];
    const TaskView view = model.task(id);
    ASSERT_EQ(task.type, view.type) << id;
    EXPECT_EQ(task.l, view.l) << id;
    EXPECT_EQ(task.i, view.i) << id;
    EXPECT_EQ(task.j, view.j) << id;
    EXPECT_EQ(task.node, view.node) << id;
    EXPECT_EQ(task.successor, view.successor) << id;
    EXPECT_EQ(task.publishes, view.publishes) << id;
    EXPECT_EQ(task.deps, model.initial_deps(id)) << id;
    if (task.publishes < 0) continue;
    const Instance& instance =
        work.instances[static_cast<std::size_t>(task.publishes)];
    const auto handle = model.publish(task.publishes, view);
    ASSERT_EQ(static_cast<std::int64_t>(instance.groups.size()),
              Implicit25dWorkload::group_count(handle))
        << id;
    EXPECT_EQ(instance.producer_node,
              Implicit25dWorkload::producer_node(handle));
    for (std::size_t g = 0; g < instance.groups.size(); ++g) {
      EXPECT_EQ(instance.groups[g].node,
                Implicit25dWorkload::group_node(handle,
                                                static_cast<std::int64_t>(g)))
          << id;
      std::vector<std::int64_t> waiters;
      Implicit25dWorkload::for_each_waiter(
          handle, static_cast<std::int64_t>(g),
          [&](std::int64_t waiter) { waiters.push_back(waiter); });
      EXPECT_EQ(instance.groups[g].waiters, waiters) << id;
    }
    model.release(task.publishes);
  }
}

TEST(ImplicitStructure25d, MatchesMaterializedBuilderAtEveryLayerCount) {
  MachineConfig machine;
  const std::int64_t t = 13;
  for (const DistCase& dist : dist_cases()) {
    for (const std::int64_t layers : {1, 2, 3, 4}) {
      machine.nodes = dist.base_nodes * layers;
      {
        const core::ReplicatedDistribution d =
            replicate(dist, t, false, layers);
        const Workload work = build_lu_workload_25d(t, d, machine);
        Implicit25dWorkload model(SimKernel::kLu, t, d, machine);
        SCOPED_TRACE(std::string("lu ") + dist.name + " c=" +
                     std::to_string(layers));
        expect_same_structure(work, model);
      }
      {
        const core::ReplicatedDistribution d =
            replicate(dist, t, true, layers);
        const Workload work = build_cholesky_workload_25d(t, d, machine);
        Implicit25dWorkload model(SimKernel::kCholesky, t, d, machine);
        SCOPED_TRACE(std::string("cholesky ") + dist.name + " c=" +
                     std::to_string(layers));
        expect_same_structure(work, model);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property wall: measured communication == closed forms >= lower bound,
// on randomized (P_b, c, t).

TEST(Property25d, MeasuredTrafficMatchesClosedFormsAndBound) {
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<std::int64_t> pick_nodes(4, 16);
  std::uniform_int_distribution<std::int64_t> pick_layers(1, 4);
  std::uniform_int_distribution<std::int64_t> pick_t(6, 16);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t base_nodes = pick_nodes(rng);
    const std::int64_t layers = pick_layers(rng);
    const std::int64_t t = pick_t(rng);
    const DistCase dist{"g2dbc", core::make_g2dbc(base_nodes), base_nodes};
    SCOPED_TRACE("P_b=" + std::to_string(base_nodes) + " c=" +
                 std::to_string(layers) + " t=" + std::to_string(t));
    for (const bool symmetric : {false, true}) {
      const core::ReplicatedDistribution d =
          replicate(dist, t, symmetric, layers);
      const std::int64_t volume =
          symmetric ? core::exact_cholesky_volume_25d(d, t)
                    : core::exact_lu_volume_25d(d, t);
      // Tile traffic never undercuts the memory-dependent I/O bound.
      const double bound =
          symmetric
              ? core::cholesky_io_lower_bound_tiles(t, d.num_nodes(), layers)
              : core::lu_io_lower_bound_tiles(t, d.num_nodes(), layers);
      EXPECT_GE(static_cast<double>(volume), bound);
      for (const comm::Algorithm algorithm :
           {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
            comm::Algorithm::kPipelinedChain}) {
        const MachineConfig machine =
            machine_for(d.num_nodes(), algorithm);
        const SimReport report = symmetric
                                     ? simulate_cholesky_25d(t, d, machine)
                                     : simulate_lu_25d(t, d, machine);
        const std::int64_t predicted =
            symmetric
                ? core::exact_cholesky_messages_25d(d, t, machine.collective)
                : core::exact_lu_messages_25d(d, t, machine.collective);
        EXPECT_EQ(report.messages, predicted)
            << comm::algorithm_name(algorithm);
        if (algorithm == comm::Algorithm::kEagerP2P) {
          // Eager point-to-point: one message per tile transfer, so the
          // trajectory's total equals the volume closed form and the
          // per-rank split equals the send profile.
          EXPECT_EQ(report.messages, volume);
          const std::vector<std::int64_t> profile =
              symmetric ? core::cholesky_send_profile_25d(d, t)
                        : core::lu_send_profile_25d(d, t);
          ASSERT_EQ(report.per_node.size(), profile.size());
          for (std::size_t n = 0; n < profile.size(); ++n)
            EXPECT_EQ(report.per_node[n].messages_sent, profile[n]) << n;
        }
      }
    }
  }
}

TEST(Property25d, MaterializedMessageCountMatchesClosedForm) {
  // The oracle graph's static message_count() (remote consumer groups) agrees
  // with the eager-p2p closed form too — no double counting of flushes.
  MachineConfig machine;
  for (const DistCase& dist : dist_cases()) {
    for (const std::int64_t layers : {1, 2, 3}) {
      machine.nodes = dist.base_nodes * layers;
      const core::ReplicatedDistribution lu = replicate(dist, kT, false, layers);
      const core::ReplicatedDistribution chol =
          replicate(dist, kT, true, layers);
      EXPECT_EQ(message_count(build_lu_workload_25d(kT, lu, machine)),
                core::exact_lu_volume_25d(lu, kT))
          << dist.name << " c=" << layers;
      EXPECT_EQ(message_count(build_cholesky_workload_25d(kT, chol, machine)),
                core::exact_cholesky_volume_25d(chol, kT))
          << dist.name << " c=" << layers;
    }
  }
}

TEST(Property25d, ReplicationReducesBroadcastVolume) {
  // The headline claim at fixed P: stacking layers shrinks panel-broadcast
  // volume (smaller base grid) at the price of reduce traffic; the total
  // must come out ahead for large enough t.
  const std::int64_t t = 64;
  const std::int64_t total_nodes = 256;
  const core::ReplicatedDistribution flat(
      std::make_shared<core::PatternDistribution>(core::make_g2dbc(256), t,
                                                  false),
      1);
  const core::ReplicatedDistribution stacked(
      std::make_shared<core::PatternDistribution>(core::make_g2dbc(64), t,
                                                  false),
      4);
  ASSERT_EQ(flat.num_nodes(), total_nodes);
  ASSERT_EQ(stacked.num_nodes(), total_nodes);
  EXPECT_LT(core::exact_lu_volume_25d(stacked, t),
            core::exact_lu_volume_25d(flat, t));
}

}  // namespace
}  // namespace anyblock::sim
