// run-coarse and run-fine-socket.
//
// End-to-end pass: `anyblock run` (or `anyblock launch --procs 2 -- run
// --transport socket`) as a user runs it, plus the distributed
// factorization alone, timed in fresh child processes of this binary.
// Rank-thread scheduling makes a process's factorization speed drift from
// one process to the next (README.md), so the factor samples are pooled
// across several processes rather than taken from this one.
//
// Traced pass: the same set-up and factorizations in this process with the
// shared recorder (vmpi flows land in the trace), next to the sequential
// reference, the residual and the layer probes.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/cost.hpp"
#include "dist/dist_factorization.hpp"
#include "gates.hpp"
#include "layers.hpp"
#include "linalg/factorizations.hpp"
#include "linalg/generators.hpp"
#include "linalg/kernels.hpp"
#include "linalg/verify.hpp"
#include "serve/recommend_service.hpp"
#include "workloads.hpp"

namespace anyblock::bench {
namespace {

struct FactorCase {
  core::Kernel kernel;
  int nodes;
};

struct RunConfig {
  std::vector<FactorCase> cases;
  std::int64_t tiles = 0;
  std::int64_t nb = 0;
  /// Ranks {0,1} and {2,3} on two socket endpoints instead of threads of
  /// one process.
  bool socket = false;
  int reps_per_process = 5;
};

RunConfig run_config(const std::string& workload, bool quick) {
  RunConfig config;
  if (workload == "run-coarse") {
    // Large tiles: kernels dominate rank time, the transport is bypassed.
    config.cases = {{core::Kernel::kLu, 3}, {core::Kernel::kCholesky, 4}};
    config.tiles = quick ? 4 : 12;
    config.nb = quick ? 32 : 96;
  } else if (workload == "run-fine-socket") {
    // Small tiles over sockets: per-message cost dominates.
    config.cases = {{core::Kernel::kCholesky, 4}};
    config.tiles = quick ? 8 : 64;
    config.nb = quick ? 8 : 16;
    config.socket = true;
  } else {
    throw std::invalid_argument("not a run workload: " + workload);
  }
  config.reps_per_process = quick ? 1 : 5;
  return config;
}

bool is_symmetric(core::Kernel kernel) {
  return kernel == core::Kernel::kCholesky;
}

double total_flops(const RunConfig& config) {
  double flops = 0.0;
  for (const FactorCase& c : config.cases)
    flops += is_symmetric(c.kernel)
                 ? linalg::cholesky_total_flops(config.tiles * config.nb)
                 : linalg::lu_total_flops(config.tiles * config.nb);
  return flops;
}

std::string config_json(const RunConfig& config, const Context& ctx) {
  std::ostringstream out;
  out << "{\"cases\":[";
  for (std::size_t k = 0; k < config.cases.size(); ++k)
    out << (k == 0 ? "" : ",") << "{\"kernel\":\""
        << core::kernel_name(config.cases[k].kernel)
        << "\",\"nodes\":" << config.cases[k].nodes << "}";
  out << "],\"tiles\":" << config.tiles << ",\"nb\":" << config.nb
      << ",\"n\":" << config.tiles * config.nb << ",\"transport\":\""
      << (config.socket ? "socket, 2 endpoints" : "inproc")
      << "\",\"collective\":\"p2p\",\"data_seed\":" << ctx.seed
      << ",\"factor_reps_per_process\":" << config.reps_per_process
      << ",\"table\":\"data/gcrm_winners.tsv\"}";
  return out.str();
}

serve::ServiceOptions table_service(const Context& ctx) {
  serve::ServiceOptions options;
  options.table_path = ctx.table;
  options.workers = 4;
  return options;
}

/// One factorization case as `anyblock run --table` sets it up: the served
/// pattern and the seeded, tiled matrix.
struct Prepared {
  FactorCase c{};
  core::Recommendation rec;
  std::unique_ptr<core::PatternDistribution> distribution;
  linalg::DenseMatrix original;
  linalg::TiledMatrix input;
};

Prepared prepare(const FactorCase& c, const RunConfig& config,
                 std::uint64_t seed, serve::RecommendService& service,
                 Spans& spans) {
  Prepared p;
  p.c = c;
  spans.time("serve.recommend",
             [&] { p.rec = service.recommend(c.nodes, c.kernel).rec; });
  p.distribution = std::make_unique<core::PatternDistribution>(
      p.rec.pattern, config.tiles, is_symmetric(c.kernel), p.rec.scheme);
  spans.time("linalg.generate", [&] {
    Rng rng(seed);
    const std::int64_t n = config.tiles * config.nb;
    p.original = is_symmetric(c.kernel) ? linalg::spd_matrix(n, rng)
                                        : linalg::diag_dominant_matrix(n, rng);
    p.input = linalg::TiledMatrix::from_dense(p.original, config.nb);
  });
  return p;
}

const char* factor_span(const Prepared& p) {
  return is_symmetric(p.c.kernel) ? "dist.distributed_cholesky"
                                  : "dist.distributed_lu";
}

/// One distributed factorization, in process or over `mesh`; the result
/// is endpoint 0's, which hosts rank 0 (the gathered factor and the
/// global report).
dist::DistRunResult factorize(const Prepared& p, SocketMesh* mesh,
                              obs::Recorder* recorder) {
  const auto call = [&] {
    return is_symmetric(p.c.kernel)
               ? dist::distributed_cholesky(p.input, *p.distribution, {},
                                            recorder)
               : dist::distributed_lu(p.input, *p.distribution, {}, recorder);
  };
  if (mesh == nullptr) {
    const vmpi::ScopedTransport inproc(nullptr);
    return call();
  }
  dist::DistRunResult results[2];
  mesh->run([&](int endpoint) { results[endpoint] = call(); });
  return std::move(results[0]);
}

/// On a 4-vCPU virtual machine, rank-thread factorization times settle only
/// after about a second of steady activity (LU on 3 ranks ran up to 2x
/// slower before that), so timed factorizations follow this much warm-up.
constexpr double kWarmUpSeconds = 1.0;

/// Factorizes every case back to back for `seconds` (at least once).
void warm_up(const std::vector<const Prepared*>& cases, SocketMesh* mesh,
             double seconds) {
  const double start = now_seconds();
  do {
    for (const Prepared* p : cases) factorize(*p, mesh, nullptr);
  } while (now_seconds() - start < seconds);
}

std::uint64_t sequential_digest(const Prepared& p) {
  linalg::TiledMatrix sequential = p.input;
  const bool ok = is_symmetric(p.c.kernel) ? linalg::tiled_cholesky(sequential)
                                           : linalg::tiled_lu_nopiv(sequential);
  if (!ok) throw std::runtime_error("sequential reference failed");
  return factor_digest(sequential, is_symmetric(p.c.kernel));
}

std::int64_t closed_form(const Prepared& p, const RunConfig& config) {
  return is_symmetric(p.c.kernel)
             ? core::exact_cholesky_messages(*p.distribution, config.tiles, {})
             : core::exact_lu_messages(*p.distribution, config.tiles, {});
}

std::int64_t gather_of(const Prepared& p, const RunConfig& config) {
  return gather_messages(*p.distribution, config.tiles,
                         is_symmetric(p.c.kernel));
}

Failure check_factor(const Prepared& p, const RunConfig& config,
                     const dist::DistRunResult& result,
                     std::uint64_t reference) {
  if (!result.ok) return "a tile factorization failed numerically";
  if (Failure failure = factor_matches_reference(
          factor_digest(result.factored, is_symmetric(p.c.kernel)),
          reference))
    return failure;
  return counts_match_closed_form(result.report, gather_of(p, config),
                                  closed_form(p, config),
                                  config.nb * config.nb);
}

std::vector<std::string> cli_args(const FactorCase& c, const RunConfig& config,
                                  const Context& ctx) {
  std::vector<std::string> args = {ctx.cli};
  if (config.socket) args.insert(args.end(), {"launch", "--procs", "2", "--"});
  args.insert(args.end(),
              {"run", "--kernel", core::kernel_name(c.kernel), "--nodes",
               std::to_string(c.nodes), "--tiles",
               std::to_string(config.tiles), "--tile",
               std::to_string(config.nb), "--data-seed",
               std::to_string(ctx.seed), "--table", ctx.table});
  if (config.socket) args.insert(args.end(), {"--transport", "socket"});
  return args;
}

/// One CLI unit: every case through `anyblock run`; returns the summed
/// wall time.  The launcher puts its rendezvous directory under TMPDIR,
/// so each launch gets a fresh one inside the work directory.
double run_cli_unit(const RunConfig& config, const Context& ctx,
                    WorkloadResult& result) {
  double seconds = 0.0;
  for (const FactorCase& c : config.cases) {
    ProcessResult process;
    const char* span = config.socket ? "cli.launch_run" : "cli.run";
    seconds += ctx.spans->time(span, [&] {
      process = run_process(cli_args(c, config, ctx), ctx.fresh_dir("tmp"));
    });
    result.count(cli_run_ok(process, config.socket ? 2 : 1));
  }
  return seconds;
}

void measure_end_to_end(const std::string& name, const RunConfig& config,
                        const Context& ctx, WorkloadResult& result) {
  std::string expect;
  {
    serve::RecommendService service(table_service(ctx));
    for (const FactorCase& c : config.cases) {
      char digest[24];
      std::snprintf(digest, sizeof digest, "%016" PRIx64,
                    sequential_digest(
                        prepare(c, config, ctx.seed, service, *ctx.spans)));
      if (!expect.empty()) expect += ',';
      expect += digest;
    }
  }
  repeat_for(ctx, 3, [&](int) {
    result.add("command_s", run_cli_unit(config, ctx, result));
    const int reps = run_child(ctx,
                               {"--child-factor", name, "--seed",
                                std::to_string(ctx.seed), "--expect", expect},
                               result);
    if (reps != config.reps_per_process)
      result.count("factor child reported " + std::to_string(reps) + " of " +
                   std::to_string(config.reps_per_process) + " reps");
  });
}

void measure_layers(const RunConfig& config, const Context& ctx,
                    WorkloadResult& result) {
  Spans& spans = *ctx.spans;
  const std::int64_t tile_doubles = config.nb * config.nb;
  repeat_for(ctx, 1, [&](int rep) {
    run_cli_unit(config, ctx, result);

    std::vector<Prepared> cases;
    std::unique_ptr<SocketMesh> mesh;
    spans.time("bench.setup", [&] {
      serve::RecommendService service(table_service(ctx));
      for (const FactorCase& c : config.cases)
        cases.push_back(prepare(c, config, ctx.seed, service, spans));
      if (config.socket)
        result.add("net.mesh_setup_s", spans.time("net.mesh_setup", [&] {
          mesh = std::make_unique<SocketMesh>(4, ctx.fresh_dir("rdv"));
        }));
    });

    double seq = 0.0, busy = 0.0, overhead = 0.0, plain = 0.0, traced = 0.0,
           inproc = 0.0, residual = 0.0, messages = 0.0, mbytes = 0.0;
    for (const Prepared& p : cases) {
      const bool symmetric = is_symmetric(p.c.kernel);
      std::uint64_t reference = 0;
      const double seq_s = spans.time(
          symmetric ? "linalg.tiled_cholesky" : "linalg.tiled_lu_nopiv",
          [&] { reference = sequential_digest(p); });
      spans.time("dist.warm_up", [&] {
        warm_up({&p}, mesh.get(), ctx.quick ? 0.0 : kWarmUpSeconds / 2);
      });
      dist::DistRunResult run;
      const double factor_s = spans.time(
          factor_span(p), [&] { run = factorize(p, mesh.get(), nullptr); });
      result.count(check_factor(p, config, run, reference));
      dist::DistRunResult traced_run;
      traced += spans.time(std::string(factor_span(p)) + ".traced", [&] {
        traced_run = factorize(p, mesh.get(), ctx.recorder);
      });
      result.count(check_factor(p, config, traced_run, reference));
      if (config.socket) {
        dist::DistRunResult local;
        inproc += spans.time(std::string(factor_span(p)) + ".inproc", [&] {
          local = factorize(p, nullptr, nullptr);
        });
        result.count(check_factor(p, config, local, reference));
      }
      residual += spans.time(
          symmetric ? "linalg.cholesky_residual" : "linalg.lu_residual", [&] {
            const double r =
                symmetric ? linalg::cholesky_residual(p.original, run.factored)
                          : linalg::lu_residual(p.original, run.factored);
            result.count(r < 1e-10 ? Failure()
                                   : Failure("residual " + json_number(r)));
          });
      const std::int64_t gather = gather_of(p, config);
      seq += seq_s;
      plain += factor_s;
      busy += p.c.nodes * factor_s;
      overhead += factor_s - seq_s / p.c.nodes;
      messages += static_cast<double>(run.report.total_messages() - gather);
      mbytes += static_cast<double>(run.report.total_doubles() -
                                    gather * tile_doubles) *
                sizeof(double) / 1e6;
    }
    result.add("linalg.seq_factor_s", seq);
    result.add("linalg.residual_s", residual);
    result.add("dist.compute_fraction", seq / busy);
    result.add("dist.overhead_s", overhead);
    result.add("dist.tile_messages", messages);
    result.add("dist.tile_mbytes", mbytes);
    result.add("obs.trace_overhead", traced / plain - 1.0);
    if (config.socket) result.add("net.overhead_s", plain - inproc);

    spans.time("linalg.kernels", [&] {
      for (const auto& [metric, value] :
           kernel_gflops(config.nb, ctx.seed + static_cast<unsigned>(rep)))
        result.add(metric, value);
    });
    spans.time("vmpi.link", [&] {
      const LinkProbe link = probe_link(nullptr, 2, 1, tile_doubles);
      result.add("vmpi.inproc.tile_msgs_per_s", link.tile_msgs_per_s);
      result.add("vmpi.inproc.pingpong_us", link.pingpong_us);
    });
    if (config.socket)
      spans.time("net.link", [&] {
        const LinkProbe link = probe_link(mesh.get(), 4, 2, tile_doubles);
        result.add("net.socket.tile_msgs_per_s", link.tile_msgs_per_s);
        result.add("net.socket.pingpong_us", link.pingpong_us);
      });
    spans.time("comm.multicast", [&] {
      result.add("comm.multicast_us", multicast_us(mesh.get(), tile_doubles));
    });
  });
}

}  // namespace

WorkloadResult run_factor_workload(const std::string& name,
                                   const Context& ctx) {
  const RunConfig config = run_config(name, ctx.quick);
  WorkloadResult result;
  result.name = name;
  result.config_json = config_json(config, ctx);
  if (ctx.trace)
    measure_layers(config, ctx, result);
  else
    measure_end_to_end(name, config, ctx, result);
  return result;
}

int factor_child(const std::string& workload, const Context& ctx,
                 const std::string& expect) {
  const RunConfig config = run_config(workload, ctx.quick);
  std::vector<std::uint64_t> references;
  std::istringstream digests(expect);
  for (std::string digest; std::getline(digests, digest, ',');)
    references.push_back(std::stoull(digest, nullptr, 16));
  if (references.size() != config.cases.size()) {
    std::fprintf(stderr, "--expect needs %zu digests\n", config.cases.size());
    return 1;
  }

  Spans spans(nullptr, workload);
  std::vector<Prepared> cases;
  std::unique_ptr<SocketMesh> mesh;
  // Several set-up samples per process; the factorizations use the last.
  for (int setup = 0; setup < (ctx.quick ? 1 : 3); ++setup) {
    cases.clear();
    mesh.reset();
    const double start = now_seconds();
    serve::RecommendService service(table_service(ctx));
    for (const FactorCase& c : config.cases)
      cases.push_back(prepare(c, config, ctx.seed, service, spans));
    if (config.socket)
      mesh = std::make_unique<SocketMesh>(4, ctx.fresh_dir("rdv"));
    report_sample("setup_s", now_seconds() - start);
  }

  std::vector<const Prepared*> all;
  for (const Prepared& p : cases) all.push_back(&p);
  warm_up(all, mesh.get(), ctx.quick ? 0.0 : kWarmUpSeconds);
  for (int rep = 0; rep < config.reps_per_process; ++rep) {
    double seconds = 0.0;
    Failure failure;
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const double start = now_seconds();
      const dist::DistRunResult run = factorize(cases[k], mesh.get(), nullptr);
      seconds += now_seconds() - start;
      if (!failure)
        failure = check_factor(cases[k], config, run, references[k]);
    }
    report_checked("call_s", seconds, failure);
    report_sample("throughput", total_flops(config) / seconds);
  }
  return 0;
}

}  // namespace anyblock::bench
