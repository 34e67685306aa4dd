// cholesky_anynodes: the symmetric-case workflow for an arbitrary node
// count.
//
//   ./cholesky_anynodes --nodes 31 --size 200000
//
// Runs the GCR&M search for P (any value), compares its pattern against the
// best SBC that fits within P nodes, and simulates the Cholesky
// factorization under both — the Fig. 11/12 experiment as a tool.
#include <cstdio>

#include "core/cost.hpp"
#include "core/pattern_search.hpp"
#include "core/sbc.hpp"
#include "sim/engine.hpp"
#include "util/args.hpp"
#include "util/stopwatch.hpp"

using namespace anyblock;

int main(int argc, char** argv) {
  ArgParser parser("cholesky_anynodes",
                   "GCR&M vs the SBC fallback for any node count");
  parser.add("nodes", "31", "number of nodes P");
  parser.add("size", "200000", "matrix size N");
  parser.add("tile", "1000", "tile size");
  parser.add("workers", "34", "compute workers per node");
  parser.add("gflops", "55", "per-core GFlop/s");
  parser.add("bandwidth", "12.5", "NIC bandwidth GB/s");
  parser.add("seeds", "100", "GCR&M random restarts per pattern size");
  if (!parser.parse(argc, argv)) return 1;

  const std::int64_t P = parser.get_int("nodes");
  const std::int64_t n = parser.get_int("size");
  const std::int64_t t = n / parser.get_int("tile");

  // Offline pattern search (runs once per P; `anyblock precompute` records
  // the winners in data/gcrm_winners.tsv).
  core::GcrmSearchOptions options;
  options.seeds = parser.get_int("seeds");
  Stopwatch search_time;
  const core::GcrmSearchResult search = core::gcrm_search(P, options);
  if (!search.found) {
    std::fprintf(stderr, "no GCR&M pattern found for P=%lld\n",
                 static_cast<long long>(P));
    return 1;
  }
  std::printf("GCR&M search for P=%lld: %.2fs, best pattern %lldx%lld with "
              "T = %.3f\n",
              static_cast<long long>(P), search_time.seconds(),
              static_cast<long long>(search.best.rows()),
              static_cast<long long>(search.best.cols()), search.best_cost);
  const core::SbcParams sbc = core::best_sbc_at_most(P);
  std::printf("SBC fallback: %lld nodes, %lldx%lld, T = %.0f\n\n",
              static_cast<long long>(sbc.P), static_cast<long long>(sbc.a),
              static_cast<long long>(sbc.a), sbc.cost());

  const auto simulate = [&](const core::Pattern& pattern, const char* label) {
    sim::MachineConfig machine;
    machine.nodes = pattern.num_nodes();
    machine.workers_per_node = static_cast<int>(parser.get_int("workers"));
    machine.core_gflops = parser.get_double("gflops");
    machine.link_bandwidth_gbps = parser.get_double("bandwidth");
    machine.tile_size = parser.get_int("tile");
    const core::PatternDistribution dist(pattern, t, true, label);
    const sim::SimReport report = sim::simulate_cholesky(t, dist, machine);
    std::printf("%-12s P=%3lld  time = %8.2f s  total = %8.0f GF/s  "
                "per-node = %6.0f GF/s  messages = %lld\n",
                label, static_cast<long long>(pattern.num_nodes()),
                report.makespan_seconds, report.total_gflops(),
                report.per_node_gflops(),
                static_cast<long long>(report.messages));
  };
  std::printf("Cholesky of N=%lld (t=%lld):\n", static_cast<long long>(n),
              static_cast<long long>(t));
  simulate(search.best, "GCR&M");
  simulate(core::make_sbc(sbc), "SBC");
  return 0;
}
