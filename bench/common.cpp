#include "common.hpp"

#include <iostream>
#include <sstream>

#include "core/cost.hpp"
#include "net/bootstrap.hpp"
#include "util/csv.hpp"

namespace anyblock::bench {

void add_machine_options(ArgParser& parser) {
  parser.add("workers", "34", "compute workers per node");
  parser.add("gflops", "55", "per-core GFlop/s");
  parser.add("bandwidth", "12.5", "NIC bandwidth GB/s (100 Gb/s = 12.5)");
  parser.add("latency", "1.5", "one-way latency in microseconds");
  parser.add("tile", "1000", "tile side in matrix elements");
}

void add_transport_options(ArgParser& parser) {
  parser.add("transport", "",
             "vmpi backend: inproc | socket (default: $ANYBLOCK_TRANSPORT)");
  parser.add("rendezvous", "",
             "socket rendezvous directory (default: $ANYBLOCK_RENDEZVOUS)");
}

std::unique_ptr<vmpi::Transport> transport_from(const ArgParser& parser,
                                                int world_size) {
  net::TransportSpec spec = net::spec_from_env();
  if (!parser.get("transport").empty())
    spec.backend = parser.get("transport");
  if (!parser.get("rendezvous").empty())
    spec.rendezvous_dir = parser.get("rendezvous");
  return net::make_transport(spec, world_size);
}

sim::MachineConfig machine_from(const ArgParser& parser, std::int64_t nodes) {
  sim::MachineConfig machine;
  machine.nodes = nodes;
  machine.workers_per_node = static_cast<int>(parser.get_int("workers"));
  machine.core_gflops = parser.get_double("gflops");
  machine.link_bandwidth_gbps = parser.get_double("bandwidth");
  machine.link_latency_us = parser.get_double("latency");
  machine.tile_size = parser.get_int("tile");
  return machine;
}

std::string dims(const core::Pattern& pattern) {
  std::ostringstream oss;
  oss << pattern.rows() << 'x' << pattern.cols();
  return oss.str();
}

sim::SimReport run_candidate(const Candidate& candidate, std::int64_t t,
                             const ArgParser& parser, bool symmetric) {
  const sim::MachineConfig machine =
      machine_from(parser, candidate.pattern.num_nodes());
  const core::PatternDistribution distribution(candidate.pattern, t,
                                               symmetric, candidate.label);
  return symmetric ? sim::simulate_cholesky(t, distribution, machine)
                   : sim::simulate_lu(t, distribution, machine);
}

void print_perf_header() {
  CsvWriter csv(std::cout);
  csv.header({"kernel", "distribution", "P", "pattern", "N", "tiles",
              "total_gflops", "per_node_gflops", "messages",
              "makespan_seconds"});
}

void print_perf_row(const char* kernel, const Candidate& candidate,
                    std::int64_t n, std::int64_t t,
                    const sim::SimReport& report) {
  CsvWriter csv(std::cout);
  csv.row(kernel, candidate.label, candidate.pattern.num_nodes(),
          dims(candidate.pattern), n, t, report.total_gflops(),
          report.per_node_gflops(), report.messages,
          report.makespan_seconds);
}

std::vector<std::int64_t> size_sweep(const ArgParser& parser) {
  return parser.get_int_list("sizes");
}

}  // namespace anyblock::bench
