// simulate-sweep: five fixed paper points, each through `anyblock simulate
// --table` and through sim::simulate_* in this process.  The points cover
// both DAG modes (materialized, implicit) and both 2D and 2.5D schedules;
// the simulator is deterministic, so the seed changes nothing here.
#include <algorithm>
#include <memory>
#include <sstream>

#include "core/cost.hpp"
#include "core/replicated.hpp"
#include "gates.hpp"
#include "serve/recommend_service.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace anyblock::bench {
namespace {

struct SimPoint {
  core::Kernel kernel;
  std::int64_t nodes;
  std::int64_t size;
  std::int64_t memory_factor;
  const char* mode;  ///< --workload-mode
};

constexpr std::int64_t kTile = 1000;  // the CLI's default tile size

std::vector<SimPoint> sim_points(bool quick) {
  if (quick) return {{core::Kernel::kCholesky, 31, 20'000, 1, "implicit"}};
  // Sizes keep one pass near a second, so a run holds enough passes for a
  // steady median.
  return {
      {core::Kernel::kLu, 23, 100'000, 1, "auto"},        // Fig. 5
      {core::Kernel::kCholesky, 31, 150'000, 1, "auto"},  // Fig. 11
      {core::Kernel::kLu, 39, 120'000, 1, "implicit"},    // Fig. 6 nodes
      {core::Kernel::kLu, 256, 128'000, 4, "auto"},       // 2.5D, c = 4
      {core::Kernel::kCholesky, 256, 128'000, 4, "auto"},
  };
}

std::string config_json(const std::vector<SimPoint>& points) {
  std::ostringstream out;
  out << "{\"tile\":" << kTile << ",\"collective\":\"p2p\",\"points\":[";
  for (std::size_t k = 0; k < points.size(); ++k)
    out << (k == 0 ? "" : ",") << "{\"kernel\":\""
        << core::kernel_name(points[k].kernel)
        << "\",\"nodes\":" << points[k].nodes
        << ",\"size\":" << points[k].size
        << ",\"memory_factor\":" << points[k].memory_factor
        << ",\"workload_mode\":\"" << points[k].mode << "\"}";
  out << "],\"table\":\"data/gcrm_winners.tsv\"}";
  return out.str();
}

bool is_symmetric(const SimPoint& point) {
  return point.kernel == core::Kernel::kCholesky;
}

/// A point as `anyblock simulate` sets it up: the served base pattern,
/// stacked on memory_factor layers, and the machine model.
struct PreparedPoint {
  SimPoint point{};
  std::int64_t t = 0;
  std::shared_ptr<core::PatternDistribution> base;
  std::unique_ptr<core::ReplicatedDistribution> stacked;
  sim::MachineConfig machine;
};

PreparedPoint prepare(const SimPoint& point, serve::RecommendService& service,
                      Spans& spans) {
  PreparedPoint p;
  p.point = point;
  p.t = point.size / kTile;
  core::Recommendation rec;
  spans.time("serve.recommend", [&] {
    rec = service.recommend(point.nodes / point.memory_factor, point.kernel)
              .rec;
  });
  p.base = std::make_shared<core::PatternDistribution>(
      rec.pattern, p.t, is_symmetric(point), rec.scheme);
  p.stacked = std::make_unique<core::ReplicatedDistribution>(
      p.base, point.memory_factor);
  p.machine.nodes = point.nodes;
  p.machine.tile_size = kTile;
  p.machine.workload_mode = sim::choose_workload_mode(
      point.mode, sim::estimated_task_count(is_symmetric(point), p.t));
  return p;
}

std::vector<PreparedPoint> prepare_all(const std::vector<SimPoint>& points,
                                       const Context& ctx) {
  serve::ServiceOptions options;
  options.table_path = ctx.table;
  serve::RecommendService service(options);
  std::vector<PreparedPoint> prepared;
  for (const SimPoint& point : points)
    prepared.push_back(prepare(point, service, *ctx.spans));
  return prepared;
}

std::int64_t closed_form(const PreparedPoint& p) {
  if (p.point.memory_factor > 1)
    return is_symmetric(p.point)
               ? core::exact_cholesky_messages_25d(*p.stacked, p.t, {})
               : core::exact_lu_messages_25d(*p.stacked, p.t, {});
  return is_symmetric(p.point)
             ? core::exact_cholesky_messages(*p.base, p.t, {})
             : core::exact_lu_messages(*p.base, p.t, {});
}

std::string simulate_span(const PreparedPoint& p) {
  return std::string(is_symmetric(p.point) ? "sim.simulate_cholesky"
                                           : "sim.simulate_lu") +
         (p.point.memory_factor > 1 ? "_25d" : "");
}

sim::SimReport simulate(const PreparedPoint& p) {
  if (p.point.memory_factor > 1)
    return is_symmetric(p.point)
               ? sim::simulate_cholesky_25d(p.t, *p.stacked, p.machine)
               : sim::simulate_lu_25d(p.t, *p.stacked, p.machine);
  return is_symmetric(p.point) ? sim::simulate_cholesky(p.t, *p.base, p.machine)
                               : sim::simulate_lu(p.t, *p.base, p.machine);
}

std::vector<std::string> cli_args(const SimPoint& point, const Context& ctx) {
  return {ctx.cli,
          "simulate",
          "--kernel",
          core::kernel_name(point.kernel),
          "--nodes",
          std::to_string(point.nodes),
          "--size",
          std::to_string(point.size),
          "--tile",
          std::to_string(kTile),
          "--memory-factor",
          std::to_string(point.memory_factor),
          "--workload-mode",
          point.mode,
          "--table",
          ctx.table};
}

}  // namespace

WorkloadResult run_simulate_sweep(const Context& ctx) {
  const std::vector<SimPoint> points = sim_points(ctx.quick);
  WorkloadResult result;
  result.name = "simulate-sweep";
  result.config_json = config_json(points);
  Spans& spans = *ctx.spans;

  std::vector<std::int64_t> closed_forms;
  for (const PreparedPoint& p : prepare_all(points, ctx))
    closed_forms.push_back(closed_form(p));
  std::vector<double> makespans;  // from the first in-process pass

  repeat_for(ctx, 2, [&](int rep) {
    std::vector<PreparedPoint> prepared;
    for (int k = 0; k < 10; ++k)
      on_cpu(k, [&] {
        result.add("setup_s", spans.time("bench.setup", [&] {
          prepared = prepare_all(points, ctx);
        }));
      });

    double call = 0.0, events = 0.0, build = 0.0, run = 0.0, frontier = 0.0,
           makespan = 0.0, rss = 0.0;
    for (std::size_t k = 0; k < prepared.size(); ++k) {
      sim::SimReport report;
      on_cpu(rep + static_cast<int>(k), [&] {
        call += spans.time(simulate_span(prepared[k]), [&] {
          if (!ctx.trace) {
            report = simulate(prepared[k]);
            return;
          }
          rss = std::max(rss, rss_growth_mb(
                                  [&] { report = simulate(prepared[k]); }));
        });
      });
      if (makespans.size() == k) makespans.push_back(report.makespan_seconds);
      Failure failure = repeats_exactly("makespan", makespans[k],
                                        report.makespan_seconds);
      if (!failure && report.messages != closed_forms[k])
        failure = "simulated " + std::to_string(report.messages) +
                  " messages, closed form " + std::to_string(closed_forms[k]);
      result.count(failure);
      events += static_cast<double>(report.events);
      build += report.build_seconds;
      run += report.run_seconds;
      frontier = std::max(frontier, static_cast<double>(report.frontier_peak));
      makespan += report.makespan_seconds;
    }
    result.add("call_s", call);
    result.add("throughput", events / call);

    double command = 0.0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      ProcessResult process;
      command += spans.time("cli.simulate", [&] {
        process = run_process(cli_args(points[k], ctx));
      });
      result.count(simulate_output_ok(process, closed_forms[k], makespans[k]));
    }
    result.add("command_s", command);

    if (ctx.trace) {
      result.add("sim.events", events);
      result.add("sim.events_per_s", events / (build + run));
      result.add("sim.build_s", build);
      result.add("sim.run_s", run);
      result.add("sim.frontier_peak", frontier);
      result.add("sim.peak_rss_mb", rss);
      result.add("sim.makespan_s", makespan);
    }
  });
  return result;
}

}  // namespace anyblock::bench
