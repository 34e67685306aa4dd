// Micro benchmarks for the cluster simulator plus the BENCH_sim.json perf
// trajectory.
//
// Two personalities behind one custom main:
//
//   micro_sim                          google-benchmark sweeps (as before)
//   micro_sim --json=BENCH_sim.json    append one trajectory entry: the
//                                      P = 1024 reference configuration,
//                                      with events/sec, peak RSS and
//                                      makespan
//   micro_sim --json=... --check       same, but exit 1 when events/sec
//                                      regresses >25% against the last
//                                      recorded entry (the CI perf smoke)
//
// Older entries also carry reference_* fields: the same run on the
// binary-heap queue over the fully materialized DAG.  The simulator no
// longer ships either; they are test oracles in tests/sim/oracle/, and
// ModeEquivalence.* checks that they simulate the identical trajectory.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/block_cyclic.hpp"
#include "core/g2dbc.hpp"
#include "sim/engine.hpp"
#include "util/sysinfo.hpp"

using namespace anyblock;

namespace {

sim::MachineConfig machine(std::int64_t nodes) {
  sim::MachineConfig config;
  config.nodes = nodes;
  config.workers_per_node = 34;
  config.tile_size = 1000;
  return config;
}

void BM_SimulateLu(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  const auto config = machine(23);
  const core::PatternDistribution dist(core::make_g2dbc(23), t, false);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate_lu(t, dist, config));
}
BENCHMARK(BM_SimulateLu)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateCholesky(benchmark::State& state) {
  const std::int64_t t = state.range(0);
  const auto config = machine(25);
  const core::PatternDistribution dist(core::make_2dbc(5, 5), t, true);
  for (auto _ : state)
    benchmark::DoNotOptimize(sim::simulate_cholesky(t, dist, config));
}
BENCHMARK(BM_SimulateCholesky)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_sim.json trajectory
// ---------------------------------------------------------------------------

/// The trajectory's fixed reference configuration: LU under G-2DBC at
/// P = 1024 — the paper's "any number of nodes" regime (~700k tasks,
/// ~1.2M events).
constexpr std::int64_t kTrajectoryNodes = 1024;
constexpr std::int64_t kTrajectoryTiles = 128;

struct Measurement {
  std::int64_t events = 0;
  double seconds = 0.0;  ///< build + run wall time
  double events_per_sec = 0.0;
  double makespan = 0.0;
  std::int64_t frontier_peak = 0;
  std::int64_t peak_rss = 0;  ///< process high-water after this phase
};

Measurement measure() {
  sim::MachineConfig config = machine(kTrajectoryNodes);
  config.workers_per_node = 2;
  const core::PatternDistribution dist(core::make_g2dbc(kTrajectoryNodes),
                                       kTrajectoryTiles, false);
  const sim::SimReport report =
      sim::simulate_lu(kTrajectoryTiles, dist, config);
  Measurement m;
  m.events = report.events;
  m.seconds = report.build_seconds + report.run_seconds;
  m.events_per_sec =
      m.seconds > 0.0 ? static_cast<double>(m.events) / m.seconds : 0.0;
  m.makespan = report.makespan_seconds;
  m.frontier_peak = report.frontier_peak;
  m.peak_rss = peak_rss_bytes();
  return m;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

std::string render_entry(const std::string& label, const Measurement& engine) {
  std::ostringstream out;
  out.precision(6);
  out << "  {\n"
      << "    \"date\": \"" << utc_timestamp() << "\",\n"
      << "    \"label\": \"" << label << "\",\n"
      << "    \"config\": {\"kernel\": \"lu\", \"scheme\": \"g2dbc\", \"P\": "
      << kTrajectoryNodes << ", \"t\": " << kTrajectoryTiles << "},\n"
      << "    \"events\": " << engine.events << ",\n"
      << "    \"events_per_sec\": " << std::fixed << engine.events_per_sec
      << ",\n"
      << "    \"seconds\": " << engine.seconds << ",\n"
      << "    \"makespan_seconds\": " << engine.makespan << ",\n"
      << "    \"frontier_peak\": " << engine.frontier_peak << ",\n"
      << "    \"peak_rss_bytes\": " << engine.peak_rss << "\n  }";
  return out.str();
}

/// Last "events_per_sec" value already recorded in the trajectory (the
/// regression baseline), or -1 when the file has no entries.  A plain
/// string scan — the file is machine-written with one key per line.
double last_events_per_sec(const std::string& text) {
  const std::string key = "\"events_per_sec\":";
  double last = -1.0;
  std::size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    at += key.size();
    last = std::strtod(text.c_str() + at, nullptr);
  }
  return last;
}

int run_trajectory(const std::string& path, const std::string& label,
                   bool check) {
  const Measurement engine = measure();

  std::string existing;
  if (std::ifstream in(path); in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    existing = buffer.str();
  }
  const double previous = last_events_per_sec(existing);

  const std::string entry = render_entry(label, engine);
  std::string updated;
  const std::size_t closing = existing.rfind(']');
  if (closing == std::string::npos) {
    updated = "[\n" + entry + "\n]\n";
  } else {
    const bool has_entries = existing.find('{') < closing;
    updated = existing.substr(0, closing);
    while (!updated.empty() &&
           (updated.back() == '\n' || updated.back() == ' '))
      updated.pop_back();
    updated += has_entries ? ",\n" : "\n";
    updated += entry + "\n]\n";
  }
  if (std::ofstream out(path); !out || !(out << updated)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }

  std::printf("sim engine:  %.0f events/s (%lld events in %.2f s), "
              "peak RSS %.1f MiB, frontier %lld\n",
              engine.events_per_sec, static_cast<long long>(engine.events),
              engine.seconds, engine.peak_rss / 1048576.0,
              static_cast<long long>(engine.frontier_peak));
  std::printf("appended to %s\n", path.c_str());

  if (check && previous > 0.0 &&
      engine.events_per_sec < 0.75 * previous) {
    std::fprintf(stderr,
                 "PERF REGRESSION: %.0f events/s is more than 25%% below "
                 "the last recorded %.0f events/s\n",
                 engine.events_per_sec, previous);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string label = "dev";
  bool check = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--label=", 8) == 0) {
      label = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) return run_trajectory(json_path, label, check);

  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
