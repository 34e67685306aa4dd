// anyblock_bench — the anyblock benchmark (README.md).
//
//   anyblock_bench --workload run-coarse --seed 1 --seconds 25 --trace 0
//   anyblock_bench --seed 1 --out results.json          # all four workloads
//   anyblock_bench --workload simulate-sweep --trace 1  # per-layer pass
//   anyblock_bench --quick                              # smoke, both passes
//   anyblock_bench --self-test                          # every gate fires
//
// The last line on stdout is one JSON object: correct, attempted, failed
// and the metrics of the pass (end-to-end with --trace 0, per-layer with
// --trace 1), each as {"value": median, "unit": ...}.
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "obs/chrome_trace.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

using namespace anyblock;
using namespace anyblock::bench;

const std::vector<std::string>& anyblock::bench::workload_names() {
  static const std::vector<std::string> names = {
      "run-coarse", "run-fine-socket", "simulate-sweep",
      "recommend-precompute"};
  return names;
}

namespace {

/// This invocation's scratch directory, removed when main() returns.
class WorkDir {
 public:
  explicit WorkDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct PassResult {
  bool trace = false;
  WorkloadResult result;
};

WorkloadResult dispatch(const std::string& workload, const Context& ctx) {
  if (workload == "simulate-sweep") return run_simulate_sweep(ctx);
  if (workload == "recommend-precompute") return run_recommend_precompute(ctx);
  return run_factor_workload(workload, ctx);
}

const std::vector<MetricSpec>& listed(bool trace) {
  return trace ? per_layer_metrics() : end_to_end_metrics();
}

/// The unit of any listed metric, or null.
const char* unit_of(const std::string& metric) {
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& spec : *specs)
      if (metric == spec.name) return spec.unit;
  return nullptr;
}

/// Every listed metric must be measured (end-to-end) and every measured
/// one listed: the tables above are the contract with BENCHMARK.json.
void validate(PassResult& pass) {
  WorkloadResult& result = pass.result;
  std::vector<std::string> unlisted;
  for (const auto& [name, samples] : result.samples)
    if (unit_of(name) == nullptr) unlisted.push_back(name);
  for (const std::string& name : unlisted)
    result.count("measured metric " + name + " is not listed");
  if (pass.trace) return;
  for (const MetricSpec& spec : end_to_end_metrics())
    if (result.find(spec.name) == nullptr)
      result.count(std::string("end-to-end metric ") + spec.name +
                   " was not measured");
}

/// The metrics of a pass in output order: the pass's listed ones first (no
/// samples, reading 0, when a per-layer metric's layer is not exercised),
/// then, unless `listed_only`, any other measured ones.
std::vector<std::pair<std::string, std::vector<double>>> ordered(
    const PassResult& pass, bool listed_only) {
  std::vector<std::pair<std::string, std::vector<double>>> rows;
  std::set<std::string> seen;
  for (const MetricSpec& spec : listed(pass.trace)) {
    const std::vector<double>* samples = pass.result.find(spec.name);
    rows.push_back({spec.name, samples ? *samples : std::vector<double>{}});
    seen.insert(spec.name);
  }
  if (!listed_only)
    for (const auto& [name, samples] : pass.result.samples)
      if (seen.count(name) == 0) rows.push_back({name, samples});
  return rows;
}

void print_table(const PassResult& pass, const Context& ctx) {
  std::printf("== %s, %s pass, seed %llu ==\n", pass.result.name.c_str(),
              pass.trace ? "traced per-layer" : "end-to-end",
              static_cast<unsigned long long>(ctx.seed));
  std::printf("  %-36s %-8s %14s %14s %14s %4s\n", "metric", "unit", "median",
              "q1", "q3", "n");
  for (const auto& [name, samples] : ordered(pass, false)) {
    const Summary s = summarize(samples);
    std::printf("  %-36s %-8s %14.6g %14.6g %14.6g %4zu\n", name.c_str(),
                unit_of(name) ? unit_of(name) : "?", s.median, s.q1, s.q3,
                s.n);
  }
  std::printf("  gates: %lld operations checked, %lld failed\n",
              static_cast<long long>(pass.result.attempted),
              static_cast<long long>(pass.result.failed));
  for (const std::string& why : pass.result.failures)
    std::printf("  FAILED: %s\n", why.c_str());
  std::fflush(stdout);
}

/// JSON members, one per metric: with `full`, every metric of the pass
/// with its raw samples and quartiles (results and layer files); without,
/// only the pass's listed metrics as {"value": median, "unit": ...} (the
/// result line), named `prefix` + metric.
std::string metrics_json(const PassResult& pass, bool full,
                         const std::string& prefix = "") {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, samples] : ordered(pass, !full)) {
    const Summary s = summarize(samples);
    const char* unit = unit_of(name) ? unit_of(name) : "?";
    out << (first ? "" : ",") << json_string(prefix + name) << ":{";
    first = false;
    if (full) {
      out << "\"unit\":" << json_string(unit) << ",\"median\":"
          << json_number(s.median) << ",\"q1\":" << json_number(s.q1)
          << ",\"q3\":" << json_number(s.q3) << ",\"n\":" << s.n
          << ",\"samples\":[";
      for (std::size_t k = 0; k < samples.size(); ++k)
        out << (k == 0 ? "" : ",") << json_number(samples[k]);
      out << "]}";
    } else {
      out << "\"value\":" << json_number(s.median)
          << ",\"unit\":" << json_string(unit) << "}";
    }
  }
  return out.str();
}

bool write_file(const std::string& path, const std::string& text) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path);
  return static_cast<bool>(out << text);
}

std::string results_json(const std::vector<PassResult>& passes,
                         const Context& ctx) {
  std::ostringstream out;
  out << "{\n\"schema_version\":1,\n\"host\":" << host_json(ANYBLOCK_BENCH_REPO)
      << ",\n\"seed\":" << ctx.seed << ",\n\"seconds\":"
      << json_number(ctx.seconds) << ",\n\"quick\":"
      << (ctx.quick ? "true" : "false") << ",\n\"runs\":[";
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const WorkloadResult& r = passes[k].result;
    out << (k == 0 ? "\n" : ",\n") << "{\"workload\":" << json_string(r.name)
        << ",\"trace\":" << (passes[k].trace ? 1 : 0) << ",\"config\":"
        << (r.config_json.empty() ? "{}" : r.config_json)
        << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"failures\":[";
    for (std::size_t f = 0; f < r.failures.size(); ++f)
      out << (f == 0 ? "" : ",") << json_string(r.failures[f]);
    out << "],\n \"metrics\":{" << metrics_json(passes[k], true) << "}}";
  }
  out << "\n]\n}\n";
  return out.str();
}

/// Writes the traced pass's Chrome trace and per-layer rows, and derives
/// the send→recv latencies from the vmpi flows the trace holds.
void finish_trace(obs::Recorder& recorder, const Spans& spans,
                  const std::string& trace_dir, const Context& ctx,
                  PassResult& pass) {
  const obs::Trace trace = recorder.take();
  const std::vector<double> latencies = send_to_recv_us(trace);
  if (!latencies.empty()) {
    pass.result.add("vmpi.send_to_recv_us.p50", percentile(latencies, 0.50));
    pass.result.add("vmpi.send_to_recv_us.p99", percentile(latencies, 0.99));
  }
  const std::string stem = trace_dir + "/" + pass.result.name;
  std::filesystem::create_directories(trace_dir);
  if (!obs::write_chrome_trace_file(stem + ".trace.json", trace))
    pass.result.count("cannot write " + stem + ".trace.json");
  const std::string layers = "{\"workload\":" + json_string(pass.result.name) +
                             ",\"seed\":" + std::to_string(ctx.seed) +
                             ",\n\"metrics\":{" + metrics_json(pass, true) +
                             "},\n\"spans\":" + spans.json() + "}\n";
  if (!write_file(stem + ".layers.json", layers))
    pass.result.count("cannot write " + stem + ".layers.json");
}

}  // namespace

int main(int argc, char** argv) {
  // Orphans of a killed subprocess (the launcher's mesh processes) are
  // reparented here, so they can be reaped instead of outliving the run.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);

  ArgParser parser("anyblock_bench",
                   "time anyblock's run/simulate/recommend/precompute end to "
                   "end (--trace 0) or layer by layer (--trace 1)");
  parser.add("workload", "all",
             "run-coarse | run-fine-socket | simulate-sweep | "
             "recommend-precompute | all");
  parser.add("seed", "1", "input seed: matrix data, query order, key streams");
  parser.add("seconds", "25", "measurement time per workload");
  parser.add("trace", "0",
             "0 = end-to-end metrics; 1 = the traced per-layer pass");
  parser.add("trace-dir", ANYBLOCK_BENCH_BUILD_DIR "/trace",
             "where --trace 1 writes <workload>.trace.json (Chrome trace) "
             "and <workload>.layers.json");
  parser.add("out", "", "also write raw samples, quartiles and the host "
                        "stamp of every run to this JSON file");
  parser.add_flag("quick", "smoke mode: tiny configurations, one "
                           "repetition, end-to-end and traced passes");
  parser.add_flag("self-test", "inject a fault into each correctness gate's "
                               "inputs and check that it fires");
  parser.add("child-factor", "",
             "(internal) time one run workload's factorizations here");
  parser.add("expect", "", "(internal) reference digests for --child-factor");
  parser.add("child-warm-reads", "",
             "(internal) time warm reads of this pattern store here");
  if (!parser.parse(argc, argv)) return 1;

  Context ctx;
  ctx.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  ctx.seconds = parser.get_double("seconds");
  ctx.quick = parser.get_flag("quick");
  ctx.cli = ANYBLOCK_BENCH_CLI;
  ctx.table = std::string(ANYBLOCK_BENCH_REPO) + "/data/gcrm_winners.tsv";
  ctx.self = std::filesystem::read_symlink("/proc/self/exe").string();
  const std::string trace_flag = parser.get("trace");
  if (trace_flag != "0" && trace_flag != "1") {
    std::fprintf(stderr, "--trace must be 0 or 1\n");
    return 1;
  }
  for (const std::string& path : {ctx.cli, ctx.table})
    if (!std::filesystem::exists(path)) {
      std::fprintf(stderr, "missing %s\n", path.c_str());
      return 1;
    }
  const WorkDir work(std::string(ANYBLOCK_BENCH_BUILD_DIR) + "/work/" +
                     std::to_string(::getpid()));
  ctx.work_dir = work.path();
  Spans no_spans(nullptr, "none");
  ctx.spans = &no_spans;

  try {
    if (parser.get_flag("self-test")) return run_self_test(ctx);
    if (!parser.get("child-factor").empty())
      return factor_child(parser.get("child-factor"), ctx,
                          parser.get("expect"));
    if (!parser.get("child-warm-reads").empty())
      return warm_reads_child(ctx, parser.get("child-warm-reads"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "anyblock_bench: %s\n", error.what());
    return 1;
  }

  std::vector<std::string> workloads = workload_names();
  if (parser.get("workload") != "all") {
    workloads = {parser.get("workload")};
    bool known = false;
    for (const std::string& name : workload_names())
      known = known || name == workloads[0];
    if (!known) {
      std::fprintf(stderr, "unknown workload %s\n", workloads[0].c_str());
      return 1;
    }
  }
  std::vector<bool> traces = {trace_flag == "1"};
  if (ctx.quick) traces = {false, true};

  std::vector<PassResult> passes;
  for (const bool trace : traces)
    for (const std::string& workload : workloads) {
      obs::Recorder recorder;
      Spans spans(trace ? &recorder : nullptr, workload);
      ctx.trace = trace;
      ctx.recorder = trace ? &recorder : nullptr;
      ctx.spans = &spans;
      PassResult pass;
      pass.trace = trace;
      reset_peak_rss();  // on failure the window starts at exec()
      try {
        pass.result = dispatch(workload, ctx);
        if (!trace) pass.result.add("peak_rss_mb", peak_rss_mb());
      } catch (const std::exception& error) {
        pass.result.count(std::string("workload aborted: ") + error.what());
      }
      pass.result.name = workload;
      if (trace) {
        try {
          finish_trace(recorder, spans, parser.get("trace-dir"), ctx, pass);
        } catch (const std::exception& error) {
          pass.result.count(std::string("trace not written: ") + error.what());
        }
      }
      validate(pass);
      print_table(pass, ctx);
      passes.push_back(std::move(pass));
    }
  ctx.spans = &no_spans;

  if (!parser.get("out").empty() &&
      !write_file(parser.get("out"), results_json(passes, ctx))) {
    std::fprintf(stderr, "cannot write %s\n", parser.get("out").c_str());
    return 1;
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string metrics;
  for (const PassResult& pass : passes) {
    attempted += pass.result.attempted;
    failed += pass.result.failed;
    // A single workload's metrics keep their names; several get prefixed.
    const std::string rows = metrics_json(
        pass, false, passes.size() > 1 ? pass.result.name + "/" : "");
    metrics += (metrics.empty() || rows.empty() ? "" : ",") + rows;
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  return failed == 0 ? 0 : 1;
}
