// recommend-precompute: the GCR&M search behind `recommend` and
// `precompute`, on both sides of the pattern store.
//
//   cold writes  one fresh `anyblock recommend --kernel cholesky --workers 4
//                --store S` process per P into an empty store S; the P set
//                is fixed (per-query cost swings ~3x with P mod 4, so a
//                seeded P sample would move the metric more than any code
//                change), the seed permutes the query order;
//   sweep        serve::precompute_winners over P 60-64 on 4 workers (what
//                `anyblock precompute` runs), the first one a warm-up;
//   warm reads   RecommendService lookups of a seeded key stream against S,
//                in a fresh child process: every lookup copies a pattern,
//                and in a process that had run other work first lookups ran
//                up to 1.7x slower, an effect of its heap, not of the store.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "core/pattern_search.hpp"
#include "gates.hpp"
#include "layers.hpp"
#include "runtime/task_engine.hpp"
#include "serve/parallel_search.hpp"
#include "serve/precompute.hpp"
#include "serve/recommend_service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace anyblock::bench {
namespace {

constexpr int kWorkers = 4;

struct ServeConfig {
  std::vector<std::int64_t> cold_p;
  std::int64_t sweep_min_p = 0;
  std::int64_t sweep_max_p = 0;
  /// P of the sequential-vs-parallel search probe (traced pass).
  std::int64_t probe_p = 0;
  int warm_batches = 0;
  int warm_lookups = 0;  ///< per batch
};

ServeConfig serve_config(bool quick) {
  if (quick) return {{20, 21}, 10, 11, 20, 1, 1000};
  // Four consecutive P cover every residue mod 4.
  return {{100, 101, 102, 103}, 60, 64, 102, 5, 50'000};
}

std::string config_json(const ServeConfig& config) {
  std::ostringstream out;
  out << "{\"kernel\":\"cholesky\",\"workers\":" << kWorkers
      << ",\"cold_p\":[";
  for (std::size_t k = 0; k < config.cold_p.size(); ++k)
    out << (k == 0 ? "" : ",") << config.cold_p[k];
  out << "],\"precompute_p\":[" << config.sweep_min_p << ","
      << config.sweep_max_p << "],\"search_probe_p\":" << config.probe_p
      << ",\"warm_batches\":" << config.warm_batches
      << ",\"warm_lookups_per_batch\":" << config.warm_lookups
      << ",\"expected\":\"data/gcrm_winners.tsv\"}";
  return out.str();
}

std::vector<std::string> recommend_args(std::int64_t P,
                                        const std::string& store_path,
                                        const Context& ctx) {
  std::vector<std::string> args = {
      ctx.cli,   "recommend", "--nodes",   std::to_string(P),
      "--kernel", "cholesky", "--workers", std::to_string(kWorkers),
      "--store", store_path,  "--format",  "json"};
  if (ctx.trace) args.push_back("--stats");
  return args;
}

/// What every answer must be: the shipped winners table's, served in
/// process.
std::map<std::int64_t, core::Recommendation> expected_answers(
    const ServeConfig& config, const Context& ctx) {
  serve::ServiceOptions options;
  options.table_path = ctx.table;
  serve::RecommendService table_only(options);
  std::map<std::int64_t, core::Recommendation> expected;
  for (const std::int64_t P : config.cold_p)
    expected[P] = table_only.recommend(P, core::Kernel::kCholesky).rec;
  return expected;
}

/// Sums a `--stats` metric over the cold queries of one pass.
double stat_of(const ProcessResult& process, const std::string& key) {
  const std::optional<std::string> value = json_field(process.out, key);
  return value ? std::stod(*value) : 0.0;
}

void probe_search(const ServeConfig& config, const Context& ctx,
                  WorkloadResult& result) {
  Spans& spans = *ctx.spans;
  const core::GcrmSearchOptions options;
  core::GcrmSearchResult sequential;
  core::GcrmSearchResult parallel;
  const double seq_s = spans.time("core.gcrm_search", [&] {
    sequential = core::gcrm_search(config.probe_p, options);
  });
  const double par_s = spans.time("serve.parallel_gcrm_search", [&] {
    runtime::TaskEngine engine(kWorkers);
    parallel = serve::parallel_gcrm_search(config.probe_p, options, engine);
  });
  result.count(sequential.best_r == parallel.best_r &&
                       sequential.best_seed == parallel.best_seed &&
                       sequential.best_cost == parallel.best_cost
                   ? Failure()
                   : Failure("parallel sweep winner differs from the "
                             "sequential one"));
  result.add("core.gcrm_search_s", seq_s);
  result.add("serve.sweep_speedup", seq_s / par_s);
}

}  // namespace

WorkloadResult run_recommend_precompute(const Context& ctx) {
  const ServeConfig config = serve_config(ctx.quick);
  WorkloadResult result;
  result.name = "recommend-precompute";
  result.config_json = config_json(config);
  Spans& spans = *ctx.spans;

  store::WinnersTable shipped;
  if (!shipped.load_file(ctx.table))
    throw std::runtime_error("cannot load " + ctx.table + ": " +
                             shipped.error());
  const std::map<std::int64_t, core::Recommendation> expected =
      expected_answers(config, ctx);

  repeat_for(ctx, 3, [&](int rep) {
    const std::string dir = ctx.fresh_dir("serve");
    const std::string store_path = dir + "/patterns.store";

    std::vector<std::int64_t> order = config.cold_p;
    Rng order_rng(split_seed(ctx.seed, static_cast<std::uint64_t>(rep)));
    order_rng.shuffle(order.begin(), order.end());
    double cold = 0.0;
    double phases[4] = {};
    const char* phase_keys[4] = {
        "sweep_phase1_seconds", "sweep_covers_seconds",
        "sweep_match_seconds", "sweep_fallback_seconds"};
    for (const std::int64_t P : order) {
      ProcessResult process;
      cold += spans.time("cli.recommend", [&] {
        process = run_process(recommend_args(P, store_path, ctx));
      });
      result.count(cold_matches_table(process, expected.at(P)));
      for (int k = 0; k < 4; ++k) phases[k] += stat_of(process, phase_keys[k]);
    }
    result.add("command_s", cold / static_cast<double>(order.size()));

    serve::PrecomputeOptions sweep;
    sweep.min_p = config.sweep_min_p;
    sweep.max_p = config.sweep_max_p;
    sweep.table_path = dir + "/winners.tsv";
    serve::PrecomputeReport report;
    const double sweep_s = spans.time("serve.precompute_winners", [&] {
      runtime::TaskEngine engine(kWorkers);
      report = serve::precompute_winners(sweep, engine);
    });
    store::WinnersTable swept;
    result.count(swept.load_file(sweep.table_path)
                     ? precompute_rows_match(swept, shipped, sweep.min_p,
                                             sweep.max_p)
                     : Failure("cannot load the swept table: " +
                               swept.error()));
    if (rep > 0 || ctx.quick) result.add("call_s", sweep_s);

    int verdicts = 0;
    spans.time("serve.warm_reads", [&] {
      // The key stream differs per seed and per repetition.
      verdicts = run_child(ctx,
                           {"--child-warm-reads", store_path, "--seed",
                            std::to_string(ctx.seed * 1000 + rep)},
                           result);
    });
    const auto expected_verdicts =
        config.warm_batches + static_cast<int>(config.cold_p.size());
    if (verdicts != expected_verdicts)
      result.count("warm-read child reported " + std::to_string(verdicts) +
                   " of " + std::to_string(expected_verdicts) + " checks");

    if (ctx.trace) {
      result.add("serve.sweep.phase1_s", phases[0]);
      result.add("serve.sweep.covers_s", phases[1]);
      result.add("serve.sweep.match_s", phases[2]);
      result.add("serve.sweep.fallback_s", phases[3]);
      const core::GcrmSweepProfile& profile = report.profile;
      result.add("serve.sweep.useful_ratio",
                 static_cast<double>(profile.attempts_built) /
                     static_cast<double>(profile.attempts_built +
                                         profile.attempts_abandoned +
                                         profile.attempts_skipped));
      probe_search(config, ctx, result);
      spans.time("store.probe", [&] {
        const StoreProbe probe = probe_store(ctx.fresh_dir("store"), ctx.seed);
        result.add("store.put_s", probe.put_s);
        result.add("store.get_us.p50", probe.get_us_p50);
      });
      spans.time("runtime.task_engine", [&] {
        result.add("runtime.task_overhead_us", task_overhead_us());
      });
    }
  });
  return result;
}

int warm_reads_child(const Context& ctx, const std::string& store_path) {
  const ServeConfig config = serve_config(ctx.quick);
  const std::map<std::int64_t, core::Recommendation> expected =
      expected_answers(config, ctx);
  std::unique_ptr<serve::RecommendService> service;
  for (int k = 0; k < (ctx.quick ? 1 : 10); ++k)
    on_cpu(k, [&] {
      const double start = now_seconds();
      serve::ServiceOptions options;
      options.store_path = store_path;
      options.table_path = ctx.table;
      service = std::make_unique<serve::RecommendService>(options);
      report_sample("setup_s", now_seconds() - start);
    });

  Rng picks(ctx.seed);
  for (int batch = -1; batch < config.warm_batches; ++batch) {  // -1: warm-up
    std::vector<std::int64_t> keys(
        static_cast<std::size_t>(config.warm_lookups));
    for (std::int64_t& P : keys)
      P = config.cold_p[picks.below(config.cold_p.size())];
    const std::int64_t hits_before = service->stats().store_hits;
    double seconds = 0.0;
    on_cpu(batch + 1, [&] {
      const double start = now_seconds();
      for (const std::int64_t P : keys)
        service->recommend(P, core::Kernel::kCholesky);
      seconds = now_seconds() - start;
    });
    const std::int64_t hits = service->stats().store_hits - hits_before;
    if (batch >= 0)
      report_checked("throughput", config.warm_lookups / seconds,
                     hits == config.warm_lookups
                         ? Failure()
                         : Failure(std::to_string(config.warm_lookups - hits) +
                                   " warm lookups missed the store"));
  }
  for (const std::int64_t P : config.cold_p)
    report_checked("gate", 0.0,
                   warm_equals_cold(
                       service->recommend(P, core::Kernel::kCholesky),
                       expected.at(P)));
  return 0;
}

}  // namespace anyblock::bench
