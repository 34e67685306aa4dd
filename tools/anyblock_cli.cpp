// anyblock — command-line front end to the distribution-pattern library.
//
//   anyblock recommend  --nodes 23 --kernel lu
//   anyblock recommend  --batch 23,31,39 --kernel cholesky --format json
//   anyblock cost       --nodes 23
//   anyblock show       --kind g2dbc --nodes 10
//   anyblock simulate   --kernel cholesky --nodes 31 --size 200000
//   anyblock simulate   --kernel lu --nodes 256 --memory-factor 4
//   anyblock run        --kernel lu --nodes 23 --tiles 12
//   anyblock run        --kernel lu --nodes 16 --memory-factor 2 --tiles 12
//   anyblock launch     --procs 2 -- run --kernel lu --nodes 23
//   anyblock precompute --max-p 10000 --table data/gcrm_winners.tsv
//
// Each subcommand accepts --help.  CSV/structured output goes to stdout.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/config.hpp"
#include "core/block_cyclic.hpp"
#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/g2dbc.hpp"
#include "core/pattern_io.hpp"
#include "core/pattern_search.hpp"
#include "core/recommend.hpp"
#include "core/replicated.hpp"
#include "core/sbc.hpp"
#include "dist/dist_factorization.hpp"
#include "fault/fault.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/verify.hpp"
#include "net/bootstrap.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/parallel_search.hpp"
#include "serve/precompute.hpp"
#include "serve/recommend_service.hpp"
#include "sim/engine.hpp"
#include "store/winners_table.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "vmpi/transport.hpp"

using namespace anyblock;

namespace {

core::Kernel parse_kernel(const std::string& name) {
  if (name == "lu") return core::Kernel::kLu;
  if (name == "cholesky") return core::Kernel::kCholesky;
  if (name == "syrk") return core::Kernel::kSyrk;
  throw std::invalid_argument("unknown kernel: " + name +
                              " (expected lu|cholesky|syrk)");
}

/// --memory-factor c stacks c replicas of a P/c-node base pattern into a
/// 2.5D schedule.  The layers must tile the machine exactly; anything else
/// is rejected loudly rather than silently rounded.
bool validate_memory_factor(const char* command, std::int64_t c,
                            std::int64_t P) {
  if (c >= 1 && c <= P && P % c == 0) return true;
  std::fprintf(stderr,
               "%s: --memory-factor %lld is invalid for %lld nodes "
               "(need 1 <= c <= P with c dividing P)\n",
               command, static_cast<long long>(c), static_cast<long long>(P));
  return false;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One recommendation as a JSON object (schema documented in README.md).
std::string served_to_json(std::int64_t P, const std::string& kernel,
                           const serve::ServedRecommendation& served,
                           bool include_pattern,
                           std::int64_t memory_factor = 1) {
  const core::Recommendation& rec = served.rec;
  std::ostringstream out;
  out << "{\"nodes\":" << P;
  if (memory_factor > 1)
    out << ",\"memory_factor\":" << memory_factor
        << ",\"base_nodes\":" << P / memory_factor;
  out << ",\"kernel\":\"" << json_escape(kernel)
      << "\",\"scheme\":\"" << json_escape(rec.scheme)
      << "\",\"rows\":" << rec.pattern.rows()
      << ",\"cols\":" << rec.pattern.cols() << ",\"cost\":";
  char cost[64];
  std::snprintf(cost, sizeof cost, "%.6f", rec.cost);
  out << cost << ",\"source\":\"" << source_name(served.source)
      << "\",\"seconds\":";
  char secs[64];
  std::snprintf(secs, sizeof secs, "%.6f", served.seconds);
  out << secs << ",\"rationale\":\"" << json_escape(rec.rationale) << '"';
  if (include_pattern)
    out << ",\"pattern\":\"" << json_escape(core::serialize_pattern(rec.pattern))
        << '"';
  out << '}';
  return out.str();
}

/// Shared --store/--table wiring for every service-backed command.
/// The sweep thread count is a separate argument: recommend takes it as
/// --workers, while simulate (whose --workers means compute workers per
/// node) and run (which has no --workers) sweep with every hardware thread.
void add_service_options(ArgParser& parser) {
  parser.add("store", "",
             "persistent pattern-store manifest (created on first use)");
  parser.add("table", "", "shipped winners table, e.g. data/gcrm_winners.tsv");
}

int resolve_workers(std::int64_t requested) {
  if (requested > 0) return static_cast<int>(requested);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

serve::ServiceOptions service_options_from(const ArgParser& parser,
                                           const core::RecommendOptions& rec,
                                           int workers) {
  serve::ServiceOptions options;
  options.store_path = parser.get("store");
  options.table_path = parser.get("table");
  options.recommend = rec;
  options.workers = workers;
  return options;
}

int cmd_recommend(int argc, char** argv) {
  ArgParser parser("anyblock recommend",
                   "pick the best distribution scheme for P nodes");
  parser.add("nodes", "23", "number of nodes P");
  parser.add("batch", "", "comma-separated node counts, e.g. 23,31,39");
  parser.add("batch-file", "",
             "file with one node count per line ('#' starts a comment)");
  parser.add("kernel", "lu", "lu | cholesky | syrk");
  parser.add("memory-factor", "1",
             "2.5D replication factor c: recommend a P/c-node base pattern "
             "to stack on c layers (c must divide every P)");
  parser.add("seeds", "100", "GCR&M search restarts (symmetric kernels)");
  parser.add("format", "text", "text | json");
  add_service_options(parser);
  parser.add("workers", "0",
             "sweep worker threads (0 = hardware concurrency)");
  parser.add_flag("print-pattern", "also render the pattern");
  parser.add_flag("stats", "append service counters (hits, latency)");
  if (!parser.parse(argc, argv)) return 1;

  const std::string format = parser.get("format");
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "recommend: --format must be text or json\n");
    return 1;
  }

  // One query list: --nodes, or --batch, or --batch-file (first match wins,
  // so plain `anyblock recommend --nodes 23` behaves exactly as before).
  std::vector<std::int64_t> nodes;
  if (!parser.get("batch").empty()) {
    nodes = parser.get_int_list("batch");
  } else if (!parser.get("batch-file").empty()) {
    std::ifstream in(parser.get("batch-file"));
    if (!in) {
      std::fprintf(stderr, "recommend: cannot read %s\n",
                   parser.get("batch-file").c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream row(line);
      std::int64_t P = 0;
      if (row >> P) nodes.push_back(P);
    }
  } else {
    nodes.push_back(parser.get_int("nodes"));
  }
  if (nodes.empty()) {
    std::fprintf(stderr, "recommend: no node counts given\n");
    return 1;
  }

  const core::Kernel kernel = parse_kernel(parser.get("kernel"));
  const std::int64_t memory_factor = parser.get_int("memory-factor");
  for (const std::int64_t P : nodes)
    if (!validate_memory_factor("recommend", memory_factor, P)) return 1;
  std::vector<std::int64_t> base_nodes = nodes;
  if (memory_factor > 1)
    for (std::int64_t& P : base_nodes) P /= memory_factor;
  core::RecommendOptions options;
  options.search.seeds = parser.get_int("seeds");
  serve::RecommendService service(service_options_from(
      parser, options, resolve_workers(parser.get_int("workers"))));
  const std::vector<serve::ServedRecommendation> served =
      service.recommend_batch(base_nodes, kernel);

  const bool print_pattern = parser.get_flag("print-pattern");
  if (format == "json") {
    std::printf("{\"schema_version\":1,\"results\":[");
    for (std::size_t i = 0; i < served.size(); ++i)
      std::printf("%s%s", i == 0 ? "" : ",",
                  served_to_json(nodes[i], parser.get("kernel"), served[i],
                                 print_pattern, memory_factor)
                      .c_str());
    std::printf("]");
    if (parser.get_flag("stats")) {
      std::printf(",\"metrics\":{");
      const auto rows = service.metric_rows();
      for (std::size_t i = 0; i < rows.size(); ++i)
        std::printf("%s\"%s\":%.6f", i == 0 ? "" : ",",
                    json_escape(rows[i].first).c_str(), rows[i].second);
      std::printf("}");
    }
    std::printf("}\n");
    return 0;
  }

  for (std::size_t i = 0; i < served.size(); ++i) {
    const core::Recommendation& rec = served[i].rec;
    if (i > 0) std::printf("\n");
    std::printf("scheme:    %s\n", rec.scheme.c_str());
    std::printf("pattern:   %lldx%lld over %lld nodes\n",
                static_cast<long long>(rec.pattern.rows()),
                static_cast<long long>(rec.pattern.cols()),
                static_cast<long long>(rec.pattern.num_nodes()));
    if (memory_factor > 1)
      std::printf("stacking:  %lld layers x %lld-node base = %lld nodes "
                  "(2.5D)\n",
                  static_cast<long long>(memory_factor),
                  static_cast<long long>(base_nodes[i]),
                  static_cast<long long>(nodes[i]));
    std::printf("cost T:    %.4f\n", rec.cost);
    std::printf("source:    %s (%.3f ms)\n", source_name(served[i].source),
                served[i].seconds * 1e3);
    std::printf("rationale: %s\n", rec.rationale.c_str());
    if (print_pattern)
      std::printf("%s", core::render_pattern(rec.pattern).c_str());
  }
  if (parser.get_flag("stats"))
    for (const auto& [name, value] : service.metric_rows())
      std::fprintf(stderr, "%s %.6f\n", name.c_str(), value);
  return 0;
}

int cmd_precompute(int argc, char** argv) {
  ArgParser parser(
      "anyblock precompute",
      "sweep GCR&M winners for a range of P and ship them as a table");
  parser.add("min-p", "2", "smallest P");
  parser.add("max-p", "64", "largest P");
  parser.add("seeds", "100", "GCR&M search restarts per size");
  parser.add("table", "data/gcrm_winners.tsv", "output winners table");
  parser.add("store", "",
             "also memoize full recommendations into this pattern store");
  parser.add("workers", "0",
             "sweep worker threads (0 = hardware concurrency)");
  parser.add("checkpoint-every", "1",
             "save the table after this many new rows (0 = only at the end)");
  parser.add("metrics", "",
             "write the sweep_* profile rows as an obs metrics CSV");
  parser.add_flag("no-prune",
                  "disable the result-identical sweep pruning (reference "
                  "timing mode)");
  parser.add_flag("resume",
                  "keep rows already in the table (refuses a damaged table "
                  "or one swept with different options)");
  if (!parser.parse(argc, argv)) return 1;

  serve::PrecomputeOptions options;
  options.min_p = parser.get_int("min-p");
  options.max_p = parser.get_int("max-p");
  options.search.seeds = parser.get_int("seeds");
  options.search.prune = !parser.get_flag("no-prune");
  options.table_path = parser.get("table");
  options.store_path = parser.get("store");
  options.resume = parser.get_flag("resume");
  options.checkpoint_every = parser.get_int("checkpoint-every");
  if (options.min_p < 2 || options.max_p < options.min_p) {
    std::fprintf(stderr, "precompute: need 2 <= min-p <= max-p\n");
    return 1;
  }

  runtime::TaskEngine engine(resolve_workers(parser.get_int("workers")));
  serve::PrecomputeReport report;
  try {
    report = serve::precompute_winners(
        options, engine, [](const store::WinnerRow& row) {
          std::fprintf(stderr, "P=%lld done (r=%lld cost %.4f)\n",
                       static_cast<long long>(row.P),
                       static_cast<long long>(row.r), row.cost);
        });
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  if (!parser.get("metrics").empty()) {
    obs::MetricsOptions metrics;
    metrics.extra = report.profile.metric_rows();
    if (!obs::write_metrics_csv_file(parser.get("metrics"), obs::Trace(),
                                     metrics)) {
      std::fprintf(stderr, "cannot write %s\n", parser.get("metrics").c_str());
      return 1;
    }
  }
  std::printf(
      "%zu winners (%lld new, %lld resumed, %lld infeasible) -> %s\n"
      "sweep: %lld built, %lld abandoned, %lld skipped "
      "(%lld/%lld sizes pruned) in %.1fs\n",
      report.table_rows, static_cast<long long>(report.swept),
      static_cast<long long>(report.resumed),
      static_cast<long long>(report.infeasible), options.table_path.c_str(),
      static_cast<long long>(report.profile.attempts_built),
      static_cast<long long>(report.profile.attempts_abandoned),
      static_cast<long long>(report.profile.attempts_skipped),
      static_cast<long long>(report.profile.sizes_pruned),
      static_cast<long long>(report.profile.sizes_feasible),
      report.profile.total_seconds);
  return 0;
}

int cmd_cost(int argc, char** argv) {
  ArgParser parser("anyblock cost",
                   "communication costs of every scheme for P nodes");
  parser.add("nodes", "23", "number of nodes P");
  parser.add("seeds", "100", "GCR&M search restarts");
  if (!parser.parse(argc, argv)) return 1;
  const std::int64_t P = parser.get_int("nodes");

  std::printf("P = %lld\n\nnon-symmetric (LU), T = x-bar + y-bar:\n",
              static_cast<long long>(P));
  for (const auto& [r, c] : core::grid_shapes(P))
    std::printf("  2DBC %lldx%-4lld T = %lld\n", static_cast<long long>(r),
                static_cast<long long>(c), static_cast<long long>(r + c));
  std::printf("  G-2DBC       T = %.4f   (2*sqrt(P) = %.4f)\n",
              core::g2dbc_cost_formula(P), core::lu_cost_reference(P));

  std::printf("\nsymmetric (Cholesky/SYRK), T = z-bar:\n");
  if (const auto sbc = core::sbc_params(P)) {
    std::printf("  SBC %lldx%-5lld T = %.1f\n",
                static_cast<long long>(sbc->a),
                static_cast<long long>(sbc->a), sbc->cost());
  } else {
    const core::SbcParams fallback = core::best_sbc_at_most(P);
    std::printf("  SBC: infeasible at P; nearest fallback P = %lld (T = %.1f)\n",
                static_cast<long long>(fallback.P), fallback.cost());
  }
  core::GcrmSearchOptions options;
  options.seeds = parser.get_int("seeds");
  if (const auto search = core::gcrm_search(P, options); search.found) {
    std::printf("  GCR&M %lldx%-3lld T = %.4f   (sqrt(2P) = %.4f, "
                "sqrt(3P/2) = %.4f)\n",
                static_cast<long long>(search.best.rows()),
                static_cast<long long>(search.best.cols()), search.best_cost,
                core::sbc_cost_reference(P), core::gcrm_cost_limit(P));
  }
  return 0;
}

int cmd_show(int argc, char** argv) {
  ArgParser parser("anyblock show", "build and render one pattern");
  parser.add("kind", "g2dbc", "2dbc | g2dbc | sbc | gcrm");
  parser.add("nodes", "10", "number of nodes P");
  parser.add("rows", "0", "grid rows (2dbc only; 0 = squarest)");
  parser.add("r", "0", "pattern size (gcrm only; 0 = search)");
  parser.add("seed", "0", "random seed (gcrm only)");
  if (!parser.parse(argc, argv)) return 1;

  const std::int64_t P = parser.get_int("nodes");
  const std::string kind = parser.get("kind");
  core::Pattern pattern;
  if (kind == "2dbc") {
    std::int64_t rows = parser.get_int("rows");
    if (rows <= 0) rows = core::best_grid(P).first;
    if (P % rows != 0) {
      std::fprintf(stderr, "rows must divide P\n");
      return 1;
    }
    pattern = core::make_2dbc(rows, P / rows);
  } else if (kind == "g2dbc") {
    pattern = core::make_g2dbc(P);
  } else if (kind == "sbc") {
    pattern = core::make_sbc(P);
  } else if (kind == "gcrm") {
    const std::int64_t r = parser.get_int("r");
    if (r > 0) {
      const core::GcrmResult result = core::gcrm_build(
          P, r, static_cast<std::uint64_t>(parser.get_int("seed")));
      if (!result.valid) {
        std::fprintf(stderr, "construction invalid for this (P, r, seed)\n");
        return 1;
      }
      pattern = result.pattern;
    } else {
      pattern = core::best_gcrm_pattern(P);
    }
  } else {
    std::fprintf(stderr, "unknown kind: %s\n", kind.c_str());
    return 1;
  }
  std::printf("%s %lldx%lld over %lld nodes, T_lu = %.4f%s\n", kind.c_str(),
              static_cast<long long>(pattern.rows()),
              static_cast<long long>(pattern.cols()),
              static_cast<long long>(pattern.num_nodes()),
              core::lu_cost(pattern),
              pattern.is_square()
                  ? (", T_sym = " + std::to_string(core::cholesky_cost(pattern)))
                        .c_str()
                  : "");
  std::printf("%s", core::render_pattern(pattern).c_str());
  return 0;
}

/// Pattern lookup for simulate/run: straight recommend_pattern unless a
/// store or winners table was given, in which case the service answers
/// (memoizing a cold sweep for next time) with an identical result.
core::Recommendation resolve_recommendation(
    const ArgParser& parser, std::int64_t P, core::Kernel kernel,
    const core::RecommendOptions& options) {
  if (parser.get("store").empty() && parser.get("table").empty())
    return core::recommend_pattern(P, kernel, options);
  serve::RecommendService service(
      service_options_from(parser, options, resolve_workers(0)));
  const serve::ServedRecommendation served = service.recommend(P, kernel);
  std::fprintf(stderr, "pattern served from %s in %.3f ms\n",
               source_name(served.source), served.seconds * 1e3);
  return served.rec;
}

int cmd_simulate(int argc, char** argv) {
  ArgParser parser("anyblock simulate",
                   "simulate a factorization under the recommended pattern");
  parser.add("nodes", "23", "number of nodes P");
  parser.add("kernel", "lu", "lu | cholesky");
  parser.add("memory-factor", "1",
             "2.5D replication factor c: a P/c-node base pattern stacked on "
             "c layers (c must divide P; 1 = plain 2D)");
  parser.add("size", "200000", "matrix size N");
  parser.add("tile", "1000", "tile size");
  parser.add("workers", "34", "compute workers per node");
  parser.add("gflops", "55", "per-core GFlop/s");
  parser.add("bandwidth", "12.5", "NIC bandwidth GB/s");
  parser.add("seeds", "100", "GCR&M search restarts");
  parser.add("collective", "p2p", "tile multicast: p2p | tree | chain");
  parser.add("chunks", "4", "chunks per tile (chain collective only)");
  parser.add("workload-mode", "auto",
             "task DAG: auto | implicit (both name the on-demand generator)");
  parser.add("trace", "", "write a Chrome trace_event JSON timeline here");
  parser.add("metrics", "", "write a CSV metrics summary here");
  parser.add("faults", "",
             "fault spec, e.g. drop=0.01,delay-ms=5,dup=0.001,seed=42");
  add_service_options(parser);
  if (!parser.parse(argc, argv)) return 1;

  const std::int64_t P = parser.get_int("nodes");
  const std::int64_t t = parser.get_int("size") / parser.get_int("tile");
  const core::Kernel kernel = parse_kernel(parser.get("kernel"));
  if (kernel == core::Kernel::kSyrk) {
    std::fprintf(stderr, "simulate supports lu|cholesky\n");
    return 1;
  }
  const std::int64_t memory_factor = parser.get_int("memory-factor");
  if (!validate_memory_factor("simulate", memory_factor, P)) return 1;
  core::RecommendOptions options;
  options.search.seeds = parser.get_int("seeds");
  const core::Recommendation rec =
      resolve_recommendation(parser, P / memory_factor, kernel, options);

  sim::MachineConfig machine;
  machine.nodes = P;
  machine.workers_per_node = static_cast<int>(parser.get_int("workers"));
  machine.core_gflops = parser.get_double("gflops");
  machine.link_bandwidth_gbps = parser.get_double("bandwidth");
  machine.tile_size = parser.get_int("tile");
  machine.collective.algorithm = comm::parse_algorithm(parser.get("collective"));
  machine.collective.chain_chunks = parser.get_int("chunks");
  const bool symmetric = kernel != core::Kernel::kLu;
  machine.workload_mode = sim::choose_workload_mode(
      parser.get("workload-mode"), sim::estimated_task_count(symmetric, t));
  if (!parser.get("faults").empty())
    machine.faults = fault::parse_fault_spec(parser.get("faults"));
  const std::string trace_path = parser.get("trace");
  const std::string metrics_path = parser.get("metrics");
  obs::Recorder recorder;
  if (!trace_path.empty() || !metrics_path.empty())
    machine.recorder = &recorder;
  // One schedule for every memory factor: c = 1 is the plain 2D run.
  const auto base = std::make_shared<core::PatternDistribution>(
      rec.pattern, t, symmetric, rec.scheme);
  const core::ReplicatedDistribution dist(base, memory_factor);
  const sim::SimReport report =
      symmetric ? sim::simulate_cholesky_25d(t, dist, machine)
                : sim::simulate_lu_25d(t, dist, machine);
  // O(t^3) to count, so only the c > 1 report rows ask for it.
  const auto volume = [&] {
    return symmetric ? core::exact_cholesky_volume_25d(dist, t)
                     : core::exact_lu_volume_25d(dist, t);
  };
  const double io_bound =
      symmetric ? core::cholesky_io_lower_bound_tiles(t, P, memory_factor)
                : core::lu_io_lower_bound_tiles(t, P, memory_factor);
  if (machine.recorder) {
    const obs::Trace trace = recorder.take();
    if (!trace_path.empty() && !obs::write_chrome_trace_file(trace_path, trace)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    if (!metrics_path.empty()) {
      obs::MetricsOptions metrics;
      metrics.predicted_messages =
          symmetric
              ? core::exact_cholesky_messages_25d(dist, t, machine.collective)
              : core::exact_lu_messages_25d(dist, t, machine.collective);
      const double engine_seconds = report.build_seconds + report.run_seconds;
      metrics.extra = {
          {"sim_events", static_cast<double>(report.events)},
          {"sim_build_seconds", report.build_seconds},
          {"sim_run_seconds", report.run_seconds},
          {"sim_frontier_peak", static_cast<double>(report.frontier_peak)},
          {"sim_makespan_seconds", report.makespan_seconds},
          {"sim_events_per_second",
           engine_seconds > 0.0 ? static_cast<double>(report.events) /
                                      engine_seconds
                                : 0.0},
      };
      if (memory_factor > 1) {
        metrics.extra.push_back(
            {"memory_factor", static_cast<double>(memory_factor)});
        metrics.extra.push_back(
            {"comm_volume_tiles", static_cast<double>(volume())});
        metrics.extra.push_back({"comm_volume_bound", io_bound});
      }
      if (!obs::write_metrics_csv_file(metrics_path, trace, metrics)) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
      }
    }
  }
  std::printf("%s of N=%lld on %lld nodes with %s (T = %.3f):\n",
              parser.get("kernel").c_str(),
              static_cast<long long>(parser.get_int("size")),
              static_cast<long long>(P), rec.scheme.c_str(), rec.cost);
  std::printf("  collective    %s\n",
              comm::algorithm_name(machine.collective.algorithm).c_str());
  if (memory_factor > 1)
    std::printf("  memory        c=%lld (%lld-node base on %lld layers; "
                "volume %lld tiles, I/O bound %.0f)\n",
                static_cast<long long>(memory_factor),
                static_cast<long long>(dist.base_nodes()),
                static_cast<long long>(memory_factor),
                static_cast<long long>(volume()), io_bound);
  std::printf("  workload      implicit (%lld tasks, frontier peak %lld)\n",
              static_cast<long long>(report.tasks),
              static_cast<long long>(report.frontier_peak));
  {
    const double engine_seconds = report.build_seconds + report.run_seconds;
    std::printf("  engine        %lld events in %.2f s (%.0f events/s)\n",
                static_cast<long long>(report.events), engine_seconds,
                engine_seconds > 0.0
                    ? static_cast<double>(report.events) / engine_seconds
                    : 0.0);
  }
  std::printf("  time          %.2f s\n", report.makespan_seconds);
  std::printf("  throughput    %.0f GFlop/s (%.0f per node)\n",
              report.total_gflops(), report.per_node_gflops());
  std::printf("  messages      %lld tiles\n",
              static_cast<long long>(report.messages));
  std::printf("  efficiency    %.1f%% of machine peak\n",
              100.0 * report.total_gflops() / machine.peak_gflops());
  if (machine.faults.enabled()) {
    const fault::FaultStats& f = report.faults;
    std::printf("  faults        %lld drops, %lld dups, %lld delays -> "
                "%lld retries, %lld dedups (seed %llu)\n",
                static_cast<long long>(f.drops),
                static_cast<long long>(f.duplicates),
                static_cast<long long>(f.delays),
                static_cast<long long>(f.retries),
                static_cast<long long>(f.dedup_discards),
                static_cast<unsigned long long>(machine.faults.seed));
  }
  return 0;
}

/// The first element, in tile order, where two factors differ under `!=`
/// (so a NaN never matches), as (row, column); lower tiles only with
/// `lower_only`.  nullopt when they agree.
std::optional<std::pair<std::int64_t, std::int64_t>> first_difference(
    const linalg::TiledMatrix& a, const linalg::TiledMatrix& b,
    bool lower_only) {
  const std::int64_t nb = a.tile_size();
  for (std::int64_t i = 0; i < a.tiles(); ++i)
    for (std::int64_t j = 0; j < (lower_only ? i + 1 : a.tiles()); ++j) {
      const auto x = a.tile(i, j);
      const auto y = b.tile(i, j);
      const auto diff = std::mismatch(x.begin(), x.end(), y.begin()).first;
      if (diff == x.end()) continue;
      const std::int64_t e = diff - x.begin();
      return std::pair{i * nb + e / nb, j * nb + e % nb};
    }
  return std::nullopt;
}

int cmd_run(int argc, char** argv) {
  ArgParser parser("anyblock run",
                   "run a real distributed factorization over vmpi and "
                   "verify it against the paper's closed forms");
  parser.add("kernel", "lu", "lu | cholesky");
  parser.add("nodes", "23", "number of nodes P (= vmpi ranks)");
  parser.add("memory-factor", "1",
             "2.5D replication factor c: a P/c-node base pattern stacked on "
             "c layers (c must divide P; 1 = plain 2D)");
  parser.add("tiles", "12", "tile matrix dimension t");
  parser.add("tile", "4", "tile size nb");
  parser.add("seeds", "100", "GCR&M search restarts (cholesky)");
  parser.add("data-seed", "7", "matrix generator seed");
  parser.add("collective", "p2p", "tile multicast: p2p | tree | chain");
  parser.add("chunks", "4", "chunks per tile (chain collective only)");
  parser.add("faults", "",
             "fault spec, e.g. drop=0.01,timeout-ms=25,seed=42 (socket runs "
             "replay the same seeded schedule in every process)");
  parser.add("transport", "",
             "inproc | socket (default: $ANYBLOCK_TRANSPORT, else inproc)");
  parser.add("rendezvous", "",
             "socket rendezvous directory (default: $ANYBLOCK_RENDEZVOUS)");
  parser.add("trace", "",
             "write a Chrome trace here (multi-process runs append .procN; "
             "flow ids are process-namespaced so merged arrows still link)");
  parser.add_flag("crosscheck",
                  "re-run over the in-process backend and require "
                  "bit-identical factors and per-rank message counts");
  add_service_options(parser);
  if (!parser.parse(argc, argv)) return 1;

  const std::int64_t P = parser.get_int("nodes");
  const std::int64_t t = parser.get_int("tiles");
  const std::int64_t nb = parser.get_int("tile");
  const core::Kernel kernel = parse_kernel(parser.get("kernel"));
  if (kernel == core::Kernel::kSyrk) {
    std::fprintf(stderr, "run supports lu|cholesky\n");
    return 1;
  }
  const bool symmetric = kernel == core::Kernel::kCholesky;
  const std::int64_t memory_factor = parser.get_int("memory-factor");
  if (!validate_memory_factor("run", memory_factor, P)) return 1;

  comm::CollectiveConfig config;
  config.algorithm = comm::parse_algorithm(parser.get("collective"));
  config.chain_chunks = parser.get_int("chunks");

  core::RecommendOptions options;
  options.search.seeds = parser.get_int("seeds");
  const core::Recommendation rec =
      resolve_recommendation(parser, P / memory_factor, kernel, options);
  const auto base = std::make_shared<core::PatternDistribution>(
      rec.pattern, t, symmetric, rec.scheme);
  const core::ReplicatedDistribution distribution(base, memory_factor);

  Rng rng(static_cast<std::uint64_t>(parser.get_int("data-seed")));
  const linalg::DenseMatrix original =
      symmetric ? linalg::spd_matrix(t * nb, rng)
                : linalg::diag_dominant_matrix(t * nb, rng);
  const linalg::TiledMatrix input =
      linalg::TiledMatrix::from_dense(original, nb);

  net::TransportSpec spec = net::spec_from_env();
  if (!parser.get("transport").empty())
    spec.backend = parser.get("transport");
  if (!parser.get("rendezvous").empty())
    spec.rendezvous_dir = parser.get("rendezvous");
  const std::unique_ptr<vmpi::Transport> transport =
      net::make_transport(spec, static_cast<int>(P));
  const vmpi::ScopedTransport ambient(transport.get());

  const std::string fault_spec = parser.get("faults");
  const auto run_once = [&](obs::Recorder* recorder) {
    std::unique_ptr<fault::FaultInjector> injector;
    if (!fault_spec.empty())
      injector = std::make_unique<fault::FaultInjector>(
          fault::parse_fault_spec(fault_spec));
    return symmetric
               ? dist::distributed_cholesky_25d(input, distribution, config,
                                                recorder, injector.get())
               : dist::distributed_lu_25d(input, distribution, config,
                                          recorder, injector.get());
  };

  obs::Recorder recorder;
  const std::string trace_path = parser.get("trace");
  const dist::DistRunResult result =
      run_once(trace_path.empty() ? nullptr : &recorder);
  if (!trace_path.empty()) {
    std::string path = trace_path;
    if (transport != nullptr && transport->process_count() > 1)
      path += ".proc" + std::to_string(transport->process_index());
    if (!obs::write_chrome_trace_file(path, recorder.take())) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  bool failed = false;
  if (!result.ok) {
    std::fprintf(stderr, "run: a tile factorization failed numerically\n");
    failed = true;
  }

  // Global count check: the report sums every process; subtracting the
  // final gather (one message per tile rank 0 does not own) must leave
  // exactly the closed-form factorization traffic of core/cost — on the
  // send side and, post-dedup, on the receive side.
  std::int64_t gather_messages = 0;
  for (std::int64_t i = 0; i < t; ++i)
    for (std::int64_t j = 0; j < (symmetric ? i + 1 : t); ++j)
      if (distribution.owner(i, j) != 0) ++gather_messages;
  const std::int64_t predicted =
      symmetric ? core::exact_cholesky_messages_25d(distribution, t, config)
                : core::exact_lu_messages_25d(distribution, t, config);
  const std::int64_t sent = result.report.total_messages() - gather_messages;
  const std::int64_t consumed =
      result.report.total_messages_received() - gather_messages;
  if (sent != predicted || consumed != predicted) {
    std::fprintf(stderr,
                 "run: message counts diverge from the closed form: sent "
                 "%lld, consumed %lld, predicted %lld\n",
                 static_cast<long long>(sent),
                 static_cast<long long>(consumed),
                 static_cast<long long>(predicted));
    failed = true;
  }

  // Only the process hosting rank 0 holds the gathered factor.
  const bool root = transport == nullptr || transport->is_local(0);
  const double residual =
      !root ? 0.0
      : symmetric ? linalg::cholesky_residual(original, result.factored)
                  : linalg::lu_residual(original, result.factored);
  if (root && memory_factor > 1) {
    // c > 1 sums trailing updates layer by layer, so the factor is not
    // bit-comparable to the sequential reference; the residual (and
    // --crosscheck's deterministic re-run) stand in for the bit test.
    if (!(residual < 1e-10)) {
      std::fprintf(stderr, "run: residual %.3e exceeds the 1e-10 gate\n",
                   residual);
      failed = true;
    }
  } else if (root) {
    linalg::TiledMatrix sequential =
        linalg::TiledMatrix::from_dense(original, nb);
    const bool sequential_ok = symmetric ? linalg::tiled_cholesky(sequential)
                                         : linalg::tiled_lu_nopiv(sequential);
    if (!sequential_ok) {
      std::fprintf(stderr, "run: sequential reference failed\n");
      failed = true;
    } else if (const auto at =
                   first_difference(result.factored, sequential, symmetric)) {
      std::fprintf(stderr,
                   "run: factor differs from the sequential reference at "
                   "(%lld, %lld)\n",
                   static_cast<long long>(at->first),
                   static_cast<long long>(at->second));
      failed = true;
    }
  }

  if (parser.get_flag("crosscheck") && root && !failed) {
    const vmpi::ScopedTransport inproc(nullptr);
    const dist::DistRunResult again = run_once(nullptr);
    if (const auto at =
            first_difference(result.factored, again.factored, symmetric)) {
      std::fprintf(stderr,
                   "run: crosscheck factor mismatch at (%lld, %lld)\n",
                   static_cast<long long>(at->first),
                   static_cast<long long>(at->second));
      failed = true;
    }
    for (std::size_t r = 0; r < result.report.per_rank.size(); ++r) {
      if (result.report.per_rank[r].messages_sent ==
              again.report.per_rank[r].messages_sent &&
          result.report.per_rank[r].messages_received ==
              again.report.per_rank[r].messages_received)
        continue;
      std::fprintf(stderr,
                   "run: crosscheck per-rank message counts diverge at rank "
                   "%zu\n",
                   r);
      failed = true;
    }
  }

  const int process = transport == nullptr ? 0 : transport->process_index();
  const int processes = transport == nullptr ? 1 : transport->process_count();
  std::printf("%s t=%lld nb=%lld on %lld nodes, %s via %s (process %d/%d)\n",
              parser.get("kernel").c_str(), static_cast<long long>(t),
              static_cast<long long>(nb), static_cast<long long>(P),
              rec.scheme.c_str(),
              spec.backend == "socket" ? "socket" : "inproc", process,
              processes);
  if (memory_factor > 1)
    std::printf("  memory      c=%lld (%lld-node %s base on %lld layers)\n",
                static_cast<long long>(memory_factor),
                static_cast<long long>(distribution.base_nodes()),
                rec.scheme.c_str(),
                static_cast<long long>(memory_factor));
  std::printf("  messages    %lld factorization + %lld gather "
              "(closed form %lld)\n",
              static_cast<long long>(sent),
              static_cast<long long>(gather_messages),
              static_cast<long long>(predicted));
  if (root)
    std::printf("  residual    %.3e (%s)\n", residual,
                memory_factor > 1
                    ? "layer-ordered sums; verified against the 1e-10 gate"
                    : "factor bit-identical to the sequential reference");
  if (!fault_spec.empty()) {
    const fault::FaultStats& f = result.report.faults;
    std::printf("  faults      %lld drops, %lld dups, %lld delays -> %lld "
                "retries, %lld dedups\n",
                static_cast<long long>(f.drops),
                static_cast<long long>(f.duplicates),
                static_cast<long long>(f.delays),
                static_cast<long long>(f.retries),
                static_cast<long long>(f.dedup_discards));
  }
  std::printf("  verdict     %s\n", failed ? "FAILED" : "ok");
  return failed ? 1 : 0;
}

int cmd_launch(int argc, char** argv) {
  // Everything after a literal "--" is the child command; the launcher's
  // own flags must come before it.
  std::vector<std::string> child;
  int own_argc = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") != 0) continue;
    own_argc = i;
    for (int j = i + 1; j < argc; ++j) child.emplace_back(argv[j]);
    break;
  }
  ArgParser parser("anyblock launch",
                   "spawn a single-host socket mesh: N OS processes re-run "
                   "this binary with the command after --");
  parser.add("procs", "0", "OS processes to spawn");
  parser.add("ranks", "0",
             "convenience alias: one process per rank (same as --procs)");
  parser.add("rendezvous", "",
             "rendezvous directory (default: a fresh temp dir)");
  if (!parser.parse(own_argc, argv)) return 1;

  std::int64_t processes = parser.get_int("procs");
  if (processes <= 0) processes = parser.get_int("ranks");
  if (processes <= 0) {
    std::fprintf(stderr, "launch: give --procs N (or --ranks N)\n");
    return 1;
  }
  if (child.empty()) {
    std::fprintf(stderr,
                 "launch: missing child command after --\n"
                 "usage: anyblock launch --procs 2 -- run --kernel lu "
                 "--nodes 23\n");
    return 1;
  }
  return net::launch_processes(static_cast<int>(processes), child,
                               parser.get("rendezvous"));
}

void print_usage() {
  std::puts(
      "anyblock — data distribution schemes for dense factorizations on any\n"
      "number of nodes\n\n"
      "usage: anyblock <command> [options]\n\n"
      "commands:\n"
      "  recommend   pick the best scheme for P nodes and a kernel\n"
      "              (--batch P1,P2,... and --format json for tooling;\n"
      "              --store/--table serve memoized answers)\n"
      "  precompute  sweep GCR&M winners for a range of P into a shipped\n"
      "              table (data/gcrm_winners.tsv)\n"
      "  cost        list every scheme's communication cost for P nodes\n"
      "  show        build and render one pattern\n"
      "  simulate    run the cluster simulator with the recommended pattern\n"
      "              (--memory-factor c stacks a P/c-node base into a 2.5D\n"
      "              schedule)\n"
      "  run         run a real distributed factorization over vmpi\n"
      "              (--transport socket spans OS processes;\n"
      "              --memory-factor c runs the 2.5D schedule)\n"
      "  launch      spawn N processes on this host wired into a socket mesh\n\n"
      "run 'anyblock <command> --help' for the command's options");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so each subcommand parses its own options.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (command == "recommend") return cmd_recommend(sub_argc, sub_argv);
    if (command == "precompute") return cmd_precompute(sub_argc, sub_argv);
    if (command == "cost") return cmd_cost(sub_argc, sub_argv);
    if (command == "show") return cmd_show(sub_argc, sub_argv);
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (command == "run") return cmd_run(sub_argc, sub_argv);
    if (command == "launch") return cmd_launch(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anyblock %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
  print_usage();
  return 1;
}
