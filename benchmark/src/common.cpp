#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace anyblock::bench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"command_s", "s"},
      {"call_s", "s"},
      {"throughput", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"linalg.gemm_update.gflops", "GFlop/s"},
      {"linalg.gemm_update_trans_b.gflops", "GFlop/s"},
      {"linalg.syrk_update_lower.gflops", "GFlop/s"},
      {"linalg.trsm_right_upper.gflops", "GFlop/s"},
      {"linalg.trsm_left_lower_unit.gflops", "GFlop/s"},
      {"linalg.trsm_right_lower_trans.gflops", "GFlop/s"},
      {"linalg.getrf_nopiv.gflops", "GFlop/s"},
      {"linalg.potrf_lower.gflops", "GFlop/s"},
      {"linalg.seq_factor_s", "s"},
      {"linalg.residual_s", "s"},
      {"dist.compute_fraction", "ratio"},
      {"dist.overhead_s", "s"},
      {"dist.tile_messages", "count"},
      {"dist.tile_mbytes", "MB"},
      {"vmpi.send_to_recv_us.p50", "us"},
      {"vmpi.send_to_recv_us.p99", "us"},
      {"vmpi.inproc.tile_msgs_per_s", "1/s"},
      {"vmpi.inproc.pingpong_us", "us"},
      {"net.socket.tile_msgs_per_s", "1/s"},
      {"net.socket.pingpong_us", "us"},
      {"net.mesh_setup_s", "s"},
      {"net.overhead_s", "s"},
      {"comm.multicast_us", "us"},
      {"runtime.task_overhead_us", "us"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.build_s", "s"},
      {"sim.run_s", "s"},
      {"sim.frontier_peak", "count"},
      {"sim.peak_rss_mb", "MB"},
      {"sim.makespan_s", "s"},
      {"core.gcrm_search_s", "s"},
      {"serve.sweep_speedup", "ratio"},
      {"serve.sweep.phase1_s", "s"},
      {"serve.sweep.covers_s", "s"},
      {"serve.sweep.match_s", "s"},
      {"serve.sweep.fallback_s", "s"},
      {"serve.sweep.useful_ratio", "ratio"},
      {"store.put_s", "s"},
      {"store.get_us.p50", "us"},
      {"obs.trace_overhead", "ratio"},
  };
  return specs;
}

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  summary.median = n % 2 == 1
                       ? samples[n / 2]
                       : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    summary.q1 = summary.q3 = samples[0];
    return summary;
  }
  // statistics.quantiles(method="exclusive", n=4): cut point i sits at
  // position i*(n+1)/4, clamped to [1, n-1], interpolated in exact
  // integer steps of a quarter.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  };
  summary.q1 = cut(1);
  summary.q3 = cut(3);
  return summary;
}

void WorkloadResult::add(const std::string& metric, double sample) {
  for (auto& [known, values] : samples)
    if (known == metric) {
      values.push_back(sample);
      return;
    }
  samples.push_back({metric, {sample}});
}

void WorkloadResult::count(const Failure& failure) {
  ++attempted;
  if (!failure) return;
  ++failed;
  failures.push_back(*failure);
}

const std::vector<double>* WorkloadResult::find(
    const std::string& metric) const {
  for (const auto& [known, values] : samples)
    if (known == metric) return &values;
  return nullptr;
}

Spans::Spans(obs::Recorder* recorder, const std::string& workload)
    : recorder_(recorder), workload_(workload) {
  if (recorder_ != nullptr) sink_ = recorder_->track("bench " + workload);
}

double Spans::time(const std::string& name,
                   const std::function<void()>& body) {
  const auto start = std::chrono::steady_clock::now();
  if (recorder_ == nullptr) {
    body();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, open_.empty() ? -1 : open_.back(), rep_, name,
                    recorder_->seconds(start), 0.0});
  open_.push_back(id);
  try {
    body();
  } catch (...) {
    open_.pop_back();
    throw;
  }
  open_.pop_back();
  const auto end = std::chrono::steady_clock::now();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = recorder_->seconds(end);
  obs::Event event;
  event.kind = obs::EventKind::kTask;
  event.name = name;
  event.start_seconds = span.start;
  event.end_seconds = span.end;
  event.priority = span.rep;
  event.tag = id;
  sink_->record(std::move(event));
  return std::chrono::duration<double>(end - start).count();
}

std::string Spans::json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    out << (k == 0 ? "" : ",") << "\n  {\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"workload\":"
        << json_string(workload_) << ",\"rep\":" << span.rep
        << ",\"name\":" << json_string(span.name)
        << ",\"start_s\":" << json_number(span.start)
        << ",\"dur_s\":" << json_number(span.end - span.start) << "}";
  }
  out << "\n]";
  return out.str();
}

std::string Context::fresh_dir(const std::string& stem) const {
  static std::atomic<int> counter{0};
  const std::string path =
      work_dir + "/" + stem + "-" + std::to_string(counter++);
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void on_cpu(int k, const std::function<void()>& body) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    body();
    return;
  }
  const int count = CPU_COUNT(&allowed);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed) && seen++ == k % count) {
      CPU_SET(cpu, &one);
      break;
    }
  struct Restore {
    const cpu_set_t& mask;
    ~Restore() { ::sched_setaffinity(0, sizeof mask, &mask); }
  } restore{allowed};
  ::sched_setaffinity(0, sizeof one, &one);
  body();
}

void repeat_for(const Context& ctx, int min_iterations,
                const std::function<void(int)>& iteration) {
  const double start = now_seconds();
  for (int k = 0;; ++k) {
    if (ctx.spans != nullptr) ctx.spans->set_rep(k);
    iteration(k);
    if (ctx.quick) return;
    const double elapsed = now_seconds() - start;
    const double per_iteration = elapsed / (k + 1);
    if (k + 1 >= min_iterations && elapsed + per_iteration > ctx.seconds)
      return;
  }
}

namespace {

/// Peak RSS (MB) of the children reaped since the last reset_peak_rss().
std::mutex children_peak_mutex;
double children_peak_mb = 0.0;

/// Reads whatever is available on `fd` into `sink`; false at EOF.
bool drain(int fd, std::string& sink) {
  char buffer[65536];
  const ssize_t got = ::read(fd, buffer, sizeof buffer);
  if (got > 0) {
    sink.append(buffer, static_cast<std::size_t>(got));
    return true;
  }
  return got < 0 && errno == EINTR;
}

}  // namespace

ProcessResult run_process(const std::vector<std::string>& argv,
                          const std::string& tmpdir, double timeout_seconds) {
  // Everything the child needs is built before fork(): only
  // async-signal-safe calls may run between fork() and exec().
  std::vector<char*> args;
  for (const std::string& arg : argv)
    args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_storage;
  for (char** entry = environ; *entry != nullptr; ++entry)
    if (tmpdir.empty() || std::strncmp(*entry, "TMPDIR=", 7) != 0)
      env_storage.emplace_back(*entry);
  if (!tmpdir.empty()) env_storage.push_back("TMPDIR=" + tmpdir);
  std::vector<char*> env;
  for (std::string& entry : env_storage) env.push_back(entry.data());
  env.push_back(nullptr);

  int out_pipe[2];
  int err_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error("pipe2");
  }
  const double start = now_seconds();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]})
      ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::execvpe(args[0], args.data(), env.data());
    ::_exit(127);
  }
  ::setpgid(pid, pid);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);

  ProcessResult result;
  const int read_ends[2] = {out_pipe[0], err_pipe[0]};
  pollfd fds[2] = {{read_ends[0], POLLIN, 0}, {read_ends[1], POLLIN, 0}};
  bool open[2] = {true, true};
  bool killed = false;
  while (open[0] || open[1]) {
    const double left = start + timeout_seconds - now_seconds();
    if (left <= 0.0 && !killed) {
      ::kill(-pid, SIGKILL);
      killed = true;
    }
    for (int k = 0; k < 2; ++k) fds[k].fd = open[k] ? read_ends[k] : -1;
    const int ready =
        ::poll(fds, 2, killed ? 1000 : static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno != EINTR) break;
    for (int k = 0; k < 2; ++k)
      if (open[k] && (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        open[k] = drain(fds[k].fd, k == 0 ? result.out : result.err);
  }
  ::close(out_pipe[0]);
  ::close(err_pipe[0]);

  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  {
    const std::lock_guard<std::mutex> lock(children_peak_mutex);
    children_peak_mb = std::max(
        children_peak_mb, static_cast<double>(usage.ru_maxrss) / 1024.0);
  }
  if (killed) {
    // Descendants of a killed child (the launcher's mesh processes) are
    // reparented to this process (a child subreaper); reap them too.
    while (::waitpid(-pid, nullptr, 0) > 0 || errno == EINTR) {
    }
  }
  result.seconds = now_seconds() - start;
  result.exit_code = !killed && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void report_sample(const std::string& metric, double value) {
  std::printf("%s %.17g\n", metric.c_str(), value);
}

void report_checked(const std::string& metric, double value,
                    const Failure& failure) {
  std::printf("%s %.17g %s\n", metric.c_str(), value,
              failure ? ("FAIL " + *failure).c_str() : "ok");
}

int run_child(const Context& ctx, const std::vector<std::string>& args,
              WorkloadResult& result) {
  std::vector<std::string> argv = {ctx.self};
  argv.insert(argv.end(), args.begin(), args.end());
  if (ctx.quick) argv.push_back("--quick");
  const ProcessResult process = run_process(argv);
  int verdicts = 0;
  std::istringstream lines(process.out);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string metric;
    double value = 0.0;
    std::string verdict;
    if (!(fields >> metric >> value)) continue;
    if (metric != "gate") result.add(metric, value);
    if (!(fields >> verdict)) continue;
    ++verdicts;
    std::string why;
    std::getline(fields, why);
    result.count(verdict == "ok" ? Failure() : Failure(verdict + why));
  }
  if (process.exit_code != 0)
    result.count("measurement child exited " +
                 std::to_string(process.exit_code) + ": " + process.err);
  return verdicts;
}

namespace {

/// A "Vm...:  <kB> kB" line of /proc/self/status, in MB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind(field + ":", 0) == 0)
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

/// Resets VmHWM to the current RSS ("5" in /proc/self/clear_refs).
bool reset_high_water_mark() {
  std::ofstream clear("/proc/self/clear_refs");
  return static_cast<bool>(clear << "5" << std::flush);
}

}  // namespace

bool reset_peak_rss() {
  {
    const std::lock_guard<std::mutex> lock(children_peak_mutex);
    children_peak_mb = 0.0;
  }
  return reset_high_water_mark();
}

double peak_rss_mb() {
  // VmHWM covers this program image only, unlike getrusage(RUSAGE_SELF),
  // which also counts whatever ran in this process before exec().
  const std::lock_guard<std::mutex> lock(children_peak_mutex);
  return std::max(status_mb("VmHWM"), children_peak_mb);
}

double rss_growth_mb(const std::function<void()>& body) {
  const double before = status_mb("VmRSS");
  if (!reset_high_water_mark())
    throw std::runtime_error("cannot reset the peak RSS mark");
  body();
  return status_mb("VmHWM") - before;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc() ? std::string(buffer, end) : "null";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::optional<std::string> json_field(const std::string& text,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  if (begin < text.size() && text[begin] == '"') {
    const std::size_t end = text.find('"', begin + 1);
    if (end == std::string::npos) return std::nullopt;
    return text.substr(begin + 1, end - begin - 1);
  }
  const std::size_t end = text.find_first_of(",}", begin);
  if (end == std::string::npos) return std::nullopt;
  return text.substr(begin, end - begin);
}

std::string host_json(const std::string& repo_dir) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  std::string commit = "unknown";
  if (std::filesystem::exists(repo_dir + "/.git")) {
    const ProcessResult git =
        run_process({"git", "-C", repo_dir, "rev-parse", "HEAD"}, {}, 10.0);
    if (git.exit_code == 0 && git.out.size() >= 40)
      commit = git.out.substr(0, 40);
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream out;
  out << "{\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_model\":" << json_string(cpu)
      << ",\"compiler\":" << json_string(compiler)
      << ",\"build_type\":" << json_string(ANYBLOCK_BENCH_BUILD_TYPE)
      << ",\"git_commit\":" << json_string(commit) << "}";
  return out.str();
}

}  // namespace anyblock::bench
