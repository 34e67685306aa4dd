// Golden equivalence suite for the implicit generators against their test
// oracles: the materialized graph of tests/sim/oracle/, run through
// sim::simulate, and the generator behind simulate_lu/cholesky/syrk must
// produce bit-identical simulations — same makespan, same per-node
// task/message counters, same obs metric rows — for every factorization,
// distribution family, and collective.  Also holds the 64-bit task-id
// regression tests at the old int32 overflow boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "comm/config.hpp"
#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "core/pattern_search.hpp"
#include "core/replicated.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/implicit_workload.hpp"
#include "sim/oracle/materialized_workload.hpp"
#include "sim/workload.hpp"
#include "sim/workload_25d.hpp"

namespace anyblock::sim {
namespace {

enum class Kernel { kLu, kCholesky, kSyrk };

/// Which side of the comparison runs: the oracle graph through
/// sim::simulate, or the generator behind the kernel entry point.
enum class Path { kMaterialized, kImplicit };

struct DistCase {
  const char* name;
  core::Pattern pattern;
  std::int64_t nodes;
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

MachineConfig machine_for(std::int64_t nodes, comm::Algorithm algorithm) {
  MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = 4;
  machine.collective.algorithm = algorithm;
  machine.collective.chain_chunks = 3;
  return machine;
}

constexpr std::int64_t kT = 20;  ///< tile grid side used by trajectory tests
constexpr std::int64_t kSyrkK = 7;

SimReport run_kernel(Kernel kernel, const DistCase& dist,
                     const MachineConfig& machine, Path mode) {
  const bool oracle = mode == Path::kMaterialized;
  switch (kernel) {
    case Kernel::kLu: {
      const core::PatternDistribution d(dist.pattern, kT, false);
      return oracle ? simulate(build_lu_workload_25d(kT, core::one_layer(d),
                                                     machine),
                               machine)
                    : simulate_lu(kT, d, machine);
    }
    case Kernel::kCholesky: {
      const core::PatternDistribution d(dist.pattern, kT, true);
      return oracle ? simulate(build_cholesky_workload_25d(
                                   kT, core::one_layer(d), machine),
                               machine)
                    : simulate_cholesky(kT, d, machine);
    }
    case Kernel::kSyrk: {
      const core::PatternDistribution c(dist.pattern, kT, true);
      const core::PatternDistribution a(dist.pattern, kT, false);
      return oracle ? simulate(build_syrk_workload(kT, kSyrkK, c, a, machine),
                               machine)
                    : simulate_syrk(kT, kSyrkK, c, a, machine);
    }
  }
  throw std::logic_error("unreachable");
}

/// Bit-exact comparison of everything the simulation is supposed to keep
/// identical across representations.  total_flops is summed in a different
/// order by the implicit generator, so it gets a relative tolerance.
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

TEST(ModeEquivalence, TrajectoriesMatchAcrossKernelsDistributionsCollectives) {
  for (const DistCase& dist : dist_cases()) {
    for (const Kernel kernel :
         {Kernel::kLu, Kernel::kCholesky, Kernel::kSyrk}) {
      for (const comm::Algorithm algorithm :
           {comm::Algorithm::kEagerP2P, comm::Algorithm::kBinomialTree,
            comm::Algorithm::kPipelinedChain}) {
        const MachineConfig machine = machine_for(dist.nodes, algorithm);
        const SimReport materialized =
            run_kernel(kernel, dist, machine, Path::kMaterialized);
        const SimReport implicit =
            run_kernel(kernel, dist, machine, Path::kImplicit);
        SCOPED_TRACE(std::string(dist.name) + " kernel " +
                     std::to_string(static_cast<int>(kernel)) + " alg " +
                     comm::algorithm_name(algorithm));
        expect_identical_reports(materialized, implicit);
        // The implicit frontier must actually be a frontier, not the DAG.
        EXPECT_LT(implicit.frontier_peak, materialized.frontier_peak);
      }
    }
  }
}

TEST(ModeEquivalence, ObsMetricRowsAreIdentical) {
  // Same trace-derived metrics CSV byte for byte: the sim_* events carry
  // the same names, times, tags and flows in both modes.
  const DistCase dist{"g2dbc_p23", core::make_g2dbc(23), 23};
  for (const Kernel kernel :
       {Kernel::kLu, Kernel::kCholesky, Kernel::kSyrk}) {
    std::string csv[2];
    for (const Path mode : {Path::kMaterialized, Path::kImplicit}) {
      obs::Recorder recorder;
      MachineConfig machine =
          machine_for(dist.nodes, comm::Algorithm::kEagerP2P);
      machine.recorder = &recorder;
      run_kernel(kernel, dist, machine, mode);
      std::ostringstream out;
      obs::write_metrics_csv(out, recorder.take(), {});
      csv[mode == Path::kImplicit] = out.str();
    }
    EXPECT_EQ(csv[0], csv[1]) << static_cast<int>(kernel);
    EXPECT_FALSE(csv[0].empty());
  }
}

TEST(ModeEquivalence, FaultTrajectoriesMatchToo) {
  // Drops, retransmissions, duplicates and jitter draw from fate_of keyed
  // by instance ordinal — identical ordinals mean identical fault
  // schedules, so even chaos runs are bit-identical across modes.
  for (const comm::Algorithm algorithm :
       {comm::Algorithm::kEagerP2P, comm::Algorithm::kPipelinedChain}) {
    SimReport reports[2];
    for (const Path mode : {Path::kMaterialized, Path::kImplicit}) {
      MachineConfig machine = machine_for(23, algorithm);
      machine.faults.drop = 0.05;
      machine.faults.duplicate = 0.03;
      machine.faults.delay = 0.05;
      machine.faults.link_jitter = 0.2;
      machine.faults.seed = 7;
      const DistCase dist{"g2dbc_p23", core::make_g2dbc(23), 23};
      reports[mode == Path::kImplicit] =
          run_kernel(Kernel::kLu, dist, machine, mode);
    }
    expect_identical_reports(reports[0], reports[1]);
    EXPECT_GT(reports[0].faults.drops, 0);
    EXPECT_GT(reports[0].faults.dedup_discards, 0);
  }
}

// ---------------------------------------------------------------------------
// Structural equivalence: the generator's closed forms versus the builder.

template <class Model>
void expect_same_structure(const Workload& work, Model& model) {
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
    // Consumer groups: same first-occurrence-by-node order, same waiter
    // ordinals in the builder's construction order.
    const Instance& instance =
        work.instances[static_cast<std::size_t>(task.publishes)];
    const auto handle = model.publish(task.publishes, view);
    ASSERT_EQ(static_cast<std::int64_t>(instance.groups.size()),
              Model::group_count(handle))
        << id;
    EXPECT_EQ(instance.producer_node, Model::producer_node(handle));
    for (std::size_t g = 0; g < instance.groups.size(); ++g) {
      EXPECT_EQ(instance.groups[g].node,
                Model::group_node(handle, static_cast<std::int64_t>(g)))
          << id;
      std::vector<std::int64_t> waiters;
      Model::for_each_waiter(
          handle, static_cast<std::int64_t>(g),
          [&](std::int64_t waiter) { waiters.push_back(waiter); });
      EXPECT_EQ(instance.groups[g].waiters, waiters) << id;
    }
    model.release(task.publishes);
  }
}

TEST(ImplicitStructure, MatchesMaterializedBuilderEverywhere) {
  MachineConfig machine;
  machine.nodes = 23;
  for (const DistCase& dist : dist_cases()) {
    machine.nodes = dist.nodes;
    const std::int64_t t = 13;
    // LU and Cholesky: the one-layer case of the replicated generator.
    {
      const core::PatternDistribution base(dist.pattern, t, false);
      const core::ReplicatedDistribution d = core::one_layer(base);
      const Workload work = build_lu_workload_25d(t, d, machine);
      Implicit25dWorkload model(SimKernel::kLu, t, d, machine);
      SCOPED_TRACE(std::string("lu ") + dist.name);
      expect_same_structure(work, model);
    }
    {
      const core::PatternDistribution base(dist.pattern, t, true);
      const core::ReplicatedDistribution d = core::one_layer(base);
      const Workload work = build_cholesky_workload_25d(t, d, machine);
      Implicit25dWorkload model(SimKernel::kCholesky, t, d, machine);
      SCOPED_TRACE(std::string("cholesky ") + dist.name);
      expect_same_structure(work, model);
    }
    {
      const core::PatternDistribution c(dist.pattern, t, true);
      const core::PatternDistribution a(dist.pattern, t, false);
      const Workload work = build_syrk_workload(t, 5, c, a, machine);
      ImplicitWorkload model(t, 5, c, a, machine);
      SCOPED_TRACE(std::string("syrk ") + dist.name);
      expect_same_structure(work, model);
    }
  }
}

TEST(ImplicitStructure, RejectsForeignNodeIdsLazily) {
  // A 12-node distribution cannot run on a 2-node machine in implicit mode
  // either; the check fires on first decode instead of up front.
  const core::PatternDistribution dist(core::make_2dbc(4, 3), 10, false);
  MachineConfig machine;
  machine.nodes = 2;
  machine.workers_per_node = 4;
  EXPECT_THROW(simulate_lu(10, dist, machine), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// 64-bit ordinal regression: LU at t = 1900 has ~2.29e9 tasks, past the
// old int32 id space.  The generator must count, decode and link tasks
// across the 2^31 boundary without wrapping.  (Pure arithmetic — nothing
// is simulated or materialized here.)

TEST(Int64Ordinals, LuPastTheInt32Boundary) {
  const std::int64_t t = 1900;
  const core::PatternDistribution base(core::make_2dbc(2, 2), t, false);
  const core::ReplicatedDistribution dist = core::one_layer(base);
  MachineConfig machine;
  machine.nodes = 4;
  const Implicit25dWorkload model(SimKernel::kLu, t, dist, machine);

  // Closed form: t GETRF + t(t-1) TRSM + (t-1)t(2t-1)/6 GEMM.
  const std::int64_t expected =
      t + t * (t - 1) + (t - 1) * t * (2 * t - 1) / 6;
  EXPECT_EQ(model.task_count(), expected);
  EXPECT_GT(model.task_count(), std::int64_t{INT32_MAX});

  // Decodes straddling the boundary stay valid, distinct, and in-range.
  std::set<std::tuple<int, std::int32_t, std::int32_t, std::int32_t>> seen;
  const std::int64_t boundary = std::int64_t{1} << 31;
  for (std::int64_t id = boundary - 4; id <= boundary + 4; ++id) {
    const TaskView view = model.task(id);
    EXPECT_GE(view.l, 0) << id;
    EXPECT_LT(view.l, t) << id;
    EXPECT_GE(view.i, view.l) << id;
    EXPECT_LT(view.i, t) << id;
    EXPECT_GE(view.j, view.l) << id;
    EXPECT_LT(view.j, t) << id;
    if (view.successor >= 0) {
      EXPECT_GT(view.successor, id) << id;
      EXPECT_LT(view.successor, model.task_count()) << id;
      // The successor writes the same tile one iteration later.
      const TaskView next = model.task(view.successor);
      EXPECT_EQ(next.l, view.l + 1) << id;
      EXPECT_EQ(next.i, view.i) << id;
      EXPECT_EQ(next.j, view.j) << id;
    }
    seen.insert({static_cast<int>(view.type), view.l, view.i, view.j});
  }
  EXPECT_EQ(seen.size(), 9u);  // all distinct: the decode is injective
}

TEST(Int64Ordinals, CholeskyCountsStayExactAtHugeGrids) {
  // The acceptance-scale grid: Cholesky P = 4096, t = 2048 has ~1.43e9
  // tasks; t = 8192 would be ~9.2e10.  Counting must not overflow or lose
  // precision (the old code multiplied int32 t * t).
  const core::PatternDistribution base(core::make_2dbc(64, 64), 8192, true);
  const core::ReplicatedDistribution dist = core::one_layer(base);
  MachineConfig machine;
  machine.nodes = 4096;
  const Implicit25dWorkload model(SimKernel::kCholesky, 8192, dist, machine);
  const std::int64_t t = 8192;
  std::int64_t expected = 0;
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t k = t - 1 - l;
    expected += 1 + 2 * k + k * (k - 1) / 2;
  }
  EXPECT_EQ(model.task_count(), expected);
  EXPECT_GT(model.task_count(), std::int64_t{90'000'000'000});
}

}  // namespace
}  // namespace anyblock::sim
