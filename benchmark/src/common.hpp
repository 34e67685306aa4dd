// Shared plumbing of the anyblock benchmark: metric tables and statistics,
// per-workload results, layer spans, subprocesses and JSON output.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace anyblock::bench {

/// A correctness gate's verdict: nullopt when the check holds, otherwise
/// the reason it failed.
using Failure = std::optional<std::string>;

/// A metric the benchmark reports, as named in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (untraced runs) and per-layer metrics (traced runs),
/// in BENCHMARK.json order.  Every workload reports every one of them;
/// per-layer metrics of layers a workload does not exercise read 0.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Median and quartiles; the quartiles follow Python's
/// statistics.quantiles(samples, n=4) (the "exclusive" method), so they
/// match what the benchmark's consumers compute from raw samples.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);

/// Everything one workload run measured and checked.
struct WorkloadResult {
  std::string name;
  std::string config_json;  ///< the exact workload configuration
  /// Raw samples per metric name, in insertion order.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  std::int64_t attempted = 0;  ///< gated operations
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void add(const std::string& metric, double sample);
  /// Counts one gated operation, failed when `failure` holds a reason.
  void count(const Failure& failure);
  [[nodiscard]] const std::vector<double>* find(const std::string& metric)
      const;
};

/// Records `<layer>.<function>` spans as obs task events on one track per
/// workload.  With a null recorder nothing is recorded and time() only
/// measures, so untraced runs carry no tracing cost.
class Spans {
 public:
  Spans(obs::Recorder* recorder, const std::string& workload);
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Repetition id stamped on the spans opened from now on.
  void set_rep(int rep) { rep_ = rep; }

  /// Runs `body` inside a span named `name` (a child of the innermost open
  /// span) and returns its wall-clock seconds.
  double time(const std::string& name, const std::function<void()>& body);

  /// The recorded spans with their ids, parents and rep ids (JSON array).
  [[nodiscard]] std::string json() const;

 private:
  struct Span {
    int id = 0;
    int parent = -1;
    int rep = 0;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };
  obs::Recorder* recorder_;
  obs::TrackSink* sink_ = nullptr;
  std::string workload_;
  int rep_ = 0;
  std::vector<int> open_;
  std::vector<Span> spans_;
};

/// Settings shared by every workload of one invocation.
struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  /// Traced pass: per-layer metrics, spans and a Chrome trace.
  bool trace = false;
  obs::Recorder* recorder = nullptr;  ///< non-null only when tracing
  Spans* spans = nullptr;
  std::string work_dir;  ///< private scratch directory of this invocation
  std::string cli;       ///< the anyblock CLI binary
  std::string self;      ///< this binary (for child measurement processes)
  std::string table;     ///< the shipped data/gcrm_winners.tsv

  /// A fresh, empty directory under work_dir.
  [[nodiscard]] std::string fresh_dir(const std::string& stem) const;
};

/// Repeats `iteration` until ctx.seconds of measurement are spent, running
/// it at least `min_iterations` times (exactly once in quick mode).  The
/// iteration index is passed in and stamped on spans as the rep id.
void repeat_for(const Context& ctx, int min_iterations,
                const std::function<void(int)>& iteration);

/// Seconds since an arbitrary fixed point (steady clock).
double now_seconds();

/// Runs `body` with the calling thread pinned to the k-th CPU this process
/// may use (k modulo their count), then restores its affinity.  The vCPUs of
/// a shared virtual machine differ in speed from minute to minute (one ran a
/// kernel 1.6x slower than its siblings), so single-threaded samples rotate
/// over all of them rather than ride whichever one the thread sits on.
/// Threads `body` starts would inherit the pin: it must start none.
void on_cpu(int k, const std::function<void()>& body);

/// Outcome of one subprocess.
struct ProcessResult {
  int exit_code = -1;  ///< -1 when killed by a signal or the timeout
  std::string out;
  std::string err;
  double seconds = 0.0;  ///< fork to reap, wall clock
};

/// Runs argv[0] with `argv`, capturing stdout and stderr, with TMPDIR set
/// to `tmpdir` when non-empty.  The child leads its own process group; on
/// the timeout the whole group is killed and reaped.
ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& tmpdir = {},
                          double timeout_seconds = 150.0);

/// Measurement children: library calls whose speed depends on the state of
/// the process they run in (rank-thread placement, heap layout) are timed
/// in fresh processes of this binary, pooled over several per run.  A
/// child reports one line per sample, "<metric> <value>", followed by
/// "ok" or "FAIL <why>" when the sample is a gated operation.
void report_sample(const std::string& metric, double value);
void report_checked(const std::string& metric, double value,
                    const Failure& failure);

/// Runs this binary with `args` as a measurement child and folds its report
/// into `result`: every line adds a sample (except to the pseudo-metric
/// "gate") and every verdict counts one gated operation.  A child that
/// exits non-zero counts as a failed one.  Returns the verdicts read.
int run_child(const Context& ctx, const std::vector<std::string>& args,
              WorkloadResult& result);

/// Starts a new peak-RSS window: resets this process's high-water mark
/// (/proc/self/clear_refs) and forgets the children reaped so far.  Returns
/// false when the kernel refuses the reset; the window then started at
/// exec().
bool reset_peak_rss();

/// Peak RSS in MB, since the last reset_peak_rss(), of this process and of
/// the children run_process() reaped.  A child's reading includes this
/// process's peak at fork() (Linux copies the high-water mark), which the
/// max() absorbs.
double peak_rss_mb();

/// Peak RSS in MB that `body` adds to this process.  It resets the
/// high-water mark, so it must not run inside a window peak_rss_mb() reads.
double rss_growth_mb(const std::function<void()>& body);

/// JSON helpers: shortest round-trip numbers and escaped strings.
std::string json_number(double value);
std::string json_string(const std::string& text);

/// The value after the first `"key":` in flat JSON text (quotes stripped
/// from strings); nullopt when the key is absent.
std::optional<std::string> json_field(const std::string& text,
                                      const std::string& key);

/// Host, compiler, build and commit stamp (JSON object).
std::string host_json(const std::string& repo_dir);

}  // namespace anyblock::bench
