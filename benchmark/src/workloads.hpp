// The four benchmark workloads (README.md explains why each exists).
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace anyblock::bench {

/// Workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

/// run-coarse and run-fine-socket: `anyblock run` end to end plus the
/// distributed factorization timed in fresh child processes; with
/// ctx.trace, the in-process per-layer pass instead.
WorkloadResult run_factor_workload(const std::string& name,
                                   const Context& ctx);

/// Measurement child of the run workloads (see run_child): set up like
/// `anyblock run`, warm up, then time the workload's factorizations, each
/// checked against `expect` (comma-separated reference digests, one per
/// factorization case).
int factor_child(const std::string& workload, const Context& ctx,
                 const std::string& expect);

/// simulate-sweep: five fixed paper points through `anyblock simulate` and
/// through sim::simulate_* in process.
WorkloadResult run_simulate_sweep(const Context& ctx);

/// recommend-precompute: cold `anyblock recommend` writes, the precompute
/// sweep, and warm reads of the written store in a fresh process.
WorkloadResult run_recommend_precompute(const Context& ctx);

/// Measurement child of recommend-precompute (see run_child): open a
/// RecommendService on `store_path` (the set-up samples), then time warm
/// lookups along the key stream of ctx.seed and check every answer.
int warm_reads_child(const Context& ctx, const std::string& store_path);

/// Feeds every correctness gate a clean input and a corrupted one and
/// checks that only the corrupted one fires; returns the exit code.
int run_self_test(const Context& ctx);

}  // namespace anyblock::bench
