// Memory-factor ablation: what does replicating the working set buy?
//
// Sweeps the 2.5D replication factor c in {1, 2, 4, 8} at the paper-scale
// machine P = 256, t = 64 for both kernels.  Each c stacks the recommended
// P/c-node base pattern (G-2DBC for LU, GCR&M/SBC for Cholesky) on c
// layers; c = 1 is the flat recommended baseline the communication-
// avoiding contender has to beat.  Every row records the exact
// closed-form communication volume (verified against the measured counts
// by the equivalence tests), the memory-dependent parallel-I/O lower
// bound at that replication, and the simulated makespan of the implicit
// 2.5D schedule.
//
// Two personalities behind one custom main:
//
//   ablation_memory_factor             CSV sweep on stdout (like the other
//                                      ablation benches)
//   ablation_memory_factor --json=BENCH_25d.json
//                                      append one trajectory entry with the
//                                      per-c volume / bound / makespan rows
//   ... --json=... --check             same, but exit 1 unless the 2.5D
//                                      claims hold: at every c >= 2 the
//                                      volume is *strictly* below the flat
//                                      baseline, and no volume ever
//                                      undercuts the I/O lower bound
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/cost.hpp"
#include "core/recommend.hpp"
#include "core/replicated.hpp"
#include "sim/engine.hpp"

using namespace anyblock;

namespace {

constexpr std::int64_t kNodes = 256;
constexpr std::int64_t kTiles = 64;
constexpr std::int64_t kLayers[] = {1, 2, 4, 8};

struct Row {
  std::int64_t c = 1;
  std::int64_t base_nodes = 0;
  std::string scheme;
  std::int64_t volume_tiles = 0;
  double io_bound_tiles = 0.0;
  double makespan_seconds = 0.0;
};

Row measure(bool symmetric, std::int64_t c) {
  const std::int64_t base_nodes = kNodes / c;
  core::RecommendOptions options;
  options.search.seeds = 10;
  const core::Recommendation rec = core::recommend_pattern(
      base_nodes, symmetric ? core::Kernel::kCholesky : core::Kernel::kLu,
      options);
  const auto base = std::make_shared<core::PatternDistribution>(
      rec.pattern, kTiles, symmetric, rec.scheme);
  const core::ReplicatedDistribution dist(base, c);

  sim::MachineConfig machine;
  machine.nodes = kNodes;
  machine.workers_per_node = 2;
  const sim::SimReport report =
      symmetric ? sim::simulate_cholesky_25d(kTiles, dist, machine)
                : sim::simulate_lu_25d(kTiles, dist, machine);

  Row row;
  row.c = c;
  row.base_nodes = base_nodes;
  row.scheme = rec.scheme;
  row.volume_tiles = symmetric
                         ? core::exact_cholesky_volume_25d(dist, kTiles)
                         : core::exact_lu_volume_25d(dist, kTiles);
  row.io_bound_tiles =
      symmetric ? core::cholesky_io_lower_bound_tiles(kTiles, kNodes, c)
                : core::lu_io_lower_bound_tiles(kTiles, kNodes, c);
  row.makespan_seconds = report.makespan_seconds;
  return row;
}

std::vector<Row> sweep(bool symmetric) {
  std::vector<Row> rows;
  for (const std::int64_t c : kLayers) rows.push_back(measure(symmetric, c));
  return rows;
}

/// The acceptance gate: replication must strictly beat the flat baseline
/// at every c >= 2, and the exact schedule may never claim less traffic
/// than the information-theoretic bound allows.
bool claims_hold(const char* kernel, const std::vector<Row>& rows) {
  bool ok = true;
  const std::int64_t flat = rows.front().volume_tiles;
  for (const Row& row : rows) {
    if (static_cast<double>(row.volume_tiles) < row.io_bound_tiles) {
      std::fprintf(stderr,
                   "%s c=%lld: volume %lld undercuts the I/O bound %.0f\n",
                   kernel, static_cast<long long>(row.c),
                   static_cast<long long>(row.volume_tiles),
                   row.io_bound_tiles);
      ok = false;
    }
    if (row.c > 1 && row.volume_tiles >= flat) {
      std::fprintf(stderr,
                   "%s c=%lld: volume %lld is not below the flat %lld\n",
                   kernel, static_cast<long long>(row.c),
                   static_cast<long long>(row.volume_tiles),
                   static_cast<long long>(flat));
      ok = false;
    }
  }
  return ok;
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

std::string render_rows(const std::vector<Row>& rows) {
  std::ostringstream out;
  out.precision(6);
  out << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << (i == 0 ? "" : ", ") << "{\"c\": " << row.c
        << ", \"base_nodes\": " << row.base_nodes << ", \"scheme\": \""
        << row.scheme << "\", \"volume_tiles\": " << row.volume_tiles
        << ", \"io_bound_tiles\": " << std::fixed << row.io_bound_tiles
        << ", \"makespan_seconds\": " << row.makespan_seconds << "}";
  }
  out << "]";
  return out.str();
}

std::string render_entry(const std::string& label,
                         const std::vector<Row>& lu,
                         const std::vector<Row>& cholesky) {
  std::ostringstream out;
  out << "  {\n"
      << "    \"date\": \"" << utc_timestamp() << "\",\n"
      << "    \"label\": \"" << label << "\",\n"
      << "    \"config\": {\"P\": " << kNodes << ", \"t\": " << kTiles
      << "},\n"
      << "    \"lu\": " << render_rows(lu) << ",\n"
      << "    \"cholesky\": " << render_rows(cholesky) << "\n  }";
  return out.str();
}

int run_trajectory(const std::string& path, const std::string& label,
                   bool check) {
  const std::vector<Row> lu = sweep(/*symmetric=*/false);
  const std::vector<Row> cholesky = sweep(/*symmetric=*/true);

  std::string existing;
  if (std::ifstream in(path); in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    existing = buffer.str();
  }
  const std::string entry = render_entry(label, lu, cholesky);
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

  for (const auto* sweep_rows : {&lu, &cholesky}) {
    const bool symmetric = sweep_rows == &cholesky;
    std::printf("%s P=%lld t=%lld:\n", symmetric ? "cholesky" : "lu",
                static_cast<long long>(kNodes),
                static_cast<long long>(kTiles));
    for (const Row& row : *sweep_rows)
      std::printf("  c=%lld %-7s %7lld tiles (bound %7.0f), makespan "
                  "%.3f s%s\n",
                  static_cast<long long>(row.c), row.scheme.c_str(),
                  static_cast<long long>(row.volume_tiles),
                  row.io_bound_tiles, row.makespan_seconds,
                  row.c == 1 ? "  <- flat baseline" : "");
  }
  std::printf("appended to %s\n", path.c_str());

  if (check && (!claims_hold("lu", lu) || !claims_hold("cholesky", cholesky)))
    return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string label = "dev";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--label=", 8) == 0) {
      label = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 1;
    }
  }
  if (!json_path.empty()) return run_trajectory(json_path, label, check);

  std::printf("kernel,c,base_nodes,scheme,volume_tiles,io_bound_tiles,"
              "makespan_seconds\n");
  for (const bool symmetric : {false, true})
    for (const Row& row : sweep(symmetric))
      std::printf("%s,%lld,%lld,%s,%lld,%.1f,%.6f\n",
                  symmetric ? "cholesky" : "lu",
                  static_cast<long long>(row.c),
                  static_cast<long long>(row.base_nodes), row.scheme.c_str(),
                  static_cast<long long>(row.volume_tiles),
                  row.io_bound_tiles, row.makespan_seconds);
  return 0;
}
