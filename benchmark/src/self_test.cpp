// --self-test: every correctness gate, fed a clean input taken from a small
// real run and then the same input with one injected fault, must pass the
// first and fire on the second.  A gate that cannot fire guards nothing.
#include <cmath>
#include <cstdio>
#include <functional>

#include "core/cost.hpp"
#include "dist/dist_factorization.hpp"
#include "gates.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "runtime/task_engine.hpp"
#include "serve/precompute.hpp"
#include "serve/recommend_service.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace anyblock::bench {
namespace {

/// Replaces the first occurrence of `from` in `text`.
std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

class SelfTest {
 public:
  /// Checks one gate: `clean` must pass and `faulty` must fire.
  void check(const char* gate, const Failure& clean, const Failure& faulty) {
    if (clean) {
      std::printf("FAIL  %-26s clean input fired: %s\n", gate, clean->c_str());
      ok_ = false;
    } else if (!faulty) {
      std::printf("FAIL  %-26s injected fault went unnoticed\n", gate);
      ok_ = false;
    } else {
      std::printf("ok    %-26s fired on the injected fault: %s\n", gate,
                  faulty->c_str());
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

}  // namespace

int run_self_test(const Context& ctx) {
  SelfTest test;
  constexpr std::int64_t kTiles = 4;
  constexpr std::int64_t kNb = 8;

  // A real distributed LU (G-2DBC, P = 3) and its sequential reference.
  const core::Recommendation lu = core::recommend_lu(3);
  const core::PatternDistribution distribution(lu.pattern, kTiles, false);
  Rng rng(ctx.seed);
  const linalg::TiledMatrix input =
      linalg::tiled_diag_dominant(kTiles, kNb, rng);
  dist::DistRunResult run = dist::distributed_lu(input, distribution);
  linalg::TiledMatrix sequential = input;
  linalg::tiled_lu_nopiv(sequential);
  const std::uint64_t reference = factor_digest(sequential, false);
  const std::uint64_t clean_digest = factor_digest(run.factored, false);
  run.factored.at(5, 3) = std::nextafter(run.factored.at(5, 3), 1e300);
  test.check("factor_matches_reference",
             factor_matches_reference(clean_digest, reference),
             factor_matches_reference(factor_digest(run.factored, false),
                                      reference));

  const std::int64_t gather = gather_messages(distribution, kTiles, false);
  const std::int64_t predicted =
      core::exact_lu_messages(distribution, kTiles, {});
  const Failure clean_counts =
      counts_match_closed_form(run.report, gather, predicted, kNb * kNb);
  ++run.report.per_rank[1].messages_sent;  // a phantom message
  test.check("counts_match_closed_form", clean_counts,
             counts_match_closed_form(run.report, gather, predicted,
                                      kNb * kNb));

  ProcessResult cli = run_process(
      {ctx.cli, "run", "--kernel", "lu", "--nodes", "3", "--tiles", "4",
       "--tile", "8", "--table", ctx.table});
  const Failure clean_cli = cli_run_ok(cli, 1);
  cli.out = replace_once(cli.out, "verdict     ok", "verdict     FAILED");
  test.check("cli_run_ok", clean_cli, cli_run_ok(cli, 1));

  // A real simulation (Cholesky GCR&M, P = 31) in process and via the CLI.
  serve::ServiceOptions table_only;
  table_only.table_path = ctx.table;
  serve::RecommendService table_service(table_only);
  const core::Recommendation chol =
      table_service.recommend(31, core::Kernel::kCholesky).rec;
  const core::PatternDistribution sim_dist(chol.pattern, 20, true);
  sim::MachineConfig machine;
  machine.nodes = 31;
  machine.tile_size = 1000;
  const sim::SimReport report = sim::simulate_cholesky(20, sim_dist, machine);
  const std::int64_t sim_closed =
      core::exact_cholesky_messages(sim_dist, 20, {});
  ProcessResult simulate = run_process(
      {ctx.cli, "simulate", "--kernel", "cholesky", "--nodes", "31", "--size",
       "20000", "--tile", "1000", "--table", ctx.table});
  const Failure clean_sim =
      simulate_output_ok(simulate, sim_closed, report.makespan_seconds);
  simulate.out = replace_once(simulate.out,
                              std::to_string(sim_closed) + " tiles",
                              std::to_string(sim_closed + 1) + " tiles");
  test.check("simulate_output_ok", clean_sim,
             simulate_output_ok(simulate, sim_closed, report.makespan_seconds));

  const sim::SimReport again = sim::simulate_cholesky(20, sim_dist, machine);
  test.check("repeats_exactly",
             repeats_exactly("makespan", report.makespan_seconds,
                             again.makespan_seconds),
             repeats_exactly("makespan", report.makespan_seconds,
                             std::nextafter(again.makespan_seconds, 1e300)));

  // A real cold recommend into a fresh store, then a warm read of it.
  const std::string store_path = ctx.fresh_dir("self-test") + "/patterns.store";
  const core::Recommendation expected =
      table_service.recommend(20, core::Kernel::kCholesky).rec;
  ProcessResult cold = run_process(
      {ctx.cli, "recommend", "--nodes", "20", "--kernel", "cholesky",
       "--workers", "4", "--store", store_path, "--format", "json"});
  const Failure clean_cold = cold_matches_table(cold, expected);
  cold.out = replace_once(cold.out,
                          "\"rows\":" + std::to_string(expected.pattern.rows()),
                          "\"rows\":" +
                              std::to_string(expected.pattern.rows() + 1));
  test.check("cold_matches_table", clean_cold,
             cold_matches_table(cold, expected));

  serve::ServiceOptions warm_options;
  warm_options.store_path = store_path;
  warm_options.table_path = ctx.table;
  serve::RecommendService warm_service(warm_options);
  serve::ServedRecommendation warm =
      warm_service.recommend(20, core::Kernel::kCholesky);
  const Failure clean_warm = warm_equals_cold(warm, expected);
  warm.rec.cost = std::nextafter(warm.rec.cost, 1e300);
  test.check("warm_equals_cold", clean_warm, warm_equals_cold(warm, expected));

  // A real precompute of P 10-11 against the shipped rows.
  store::WinnersTable shipped;
  if (!shipped.load_file(ctx.table)) {
    std::printf("FAIL  cannot load %s: %s\n", ctx.table.c_str(),
                shipped.error().c_str());
    return 1;
  }
  serve::PrecomputeOptions sweep;
  sweep.min_p = 10;
  sweep.max_p = 11;
  sweep.table_path = ctx.fresh_dir("self-test") + "/winners.tsv";
  {
    runtime::TaskEngine engine(4);
    serve::precompute_winners(sweep, engine);
  }
  store::WinnersTable swept;
  if (!swept.load_file(sweep.table_path)) {
    std::printf("FAIL  cannot load the swept table: %s\n",
                swept.error().c_str());
    return 1;
  }
  const Failure clean_rows = precompute_rows_match(swept, shipped, 10, 11);
  store::WinnerRow row = *swept.find(10);
  ++row.seed;
  swept.add(row);
  test.check("precompute_rows_match", clean_rows,
             precompute_rows_match(swept, shipped, 10, 11));

  std::printf("self-test %s\n", test.ok() ? "passed" : "FAILED");
  return test.ok() ? 0 : 1;
}

}  // namespace anyblock::bench
