// Sequential-task-flow (STF) engine — the StarPU-like substrate
// (paper, Section II-C).
//
// The application submits tasks in sequential order, each declaring which
// data handles it reads and/or writes; the engine infers dependencies
// (read-after-write, write-after-write, write-after-read) exactly as a
// sequential execution would impose them, and runs independent tasks
// concurrently on a worker thread pool.  This is the execution model under
// which the paper's distributions are deployed: the distribution only
// decides *where* a task runs; correctness never depends on it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace anyblock::runtime {

using HandleId = std::int64_t;

enum class AccessMode { kRead, kWrite, kReadWrite };

struct Access {
  HandleId handle;
  AccessMode mode;
};

struct EngineStats {
  std::int64_t tasks_executed = 0;
  /// Of those, tasks whose body threw (their successors still ran).
  std::int64_t tasks_failed = 0;
  /// Dependency edges the declared accesses imply (RAW, WAR, WAW), counted
  /// at submit whether or not the predecessor has finished: a property of
  /// the submitted task graph alone, identical on every run.
  std::int64_t inferred_edges = 0;
  /// Of those, the edges wired to a predecessor still in flight.  An edge
  /// whose predecessor already finished is satisfied at submit and skipped,
  /// so this count depends on thread timing.
  std::int64_t dependency_edges = 0;
  /// Largest number of tasks simultaneously running.
  std::int64_t peak_concurrency = 0;
};

/// One executed task, for offline schedule inspection (StarPU ships the
/// same idea as FxT/Paje traces).  Derived from the obs recording — see
/// enable_tracing() / take_trace().
struct TraceEvent {
  std::string name;
  int worker = 0;
  double start_seconds = 0.0;  ///< relative to tracing start
  double end_seconds = 0.0;
};

/// Task-parallel executor with automatic dependency inference.
///
/// Thread-safety: submit() and wait_all() must be called from the single
/// submitting thread (STF semantics); task bodies run on worker threads and
/// must only touch the data they declared.
///
/// Failure semantics mirror vmpi::run_ranks: a task body that throws is
/// marked failed, its successors still run (they must tolerate the
/// predecessor's output being incomplete, as StarPU codelets must), and
/// wait_all() rethrows the first stored exception once the DAG drained.
class TaskEngine {
 public:
  /// Spawns `workers` threads (>= 1).
  explicit TaskEngine(int workers);

  /// Terminates (loudly) when tasks are still pending — destroying a live
  /// engine would silently drop submitted work; call wait_all() first.
  ~TaskEngine();

  TaskEngine(const TaskEngine&) = delete;
  TaskEngine& operator=(const TaskEngine&) = delete;

  /// Registers a fresh data handle.  Handles are engine-scoped tokens; the
  /// application keeps the association with actual buffers.
  HandleId register_data();

  /// Submits a task accessing the given handles.  `priority` breaks ties in
  /// the ready queue (higher runs first) — factorizations boost panel tasks
  /// to keep the critical path moving.
  void submit(std::function<void()> body, std::vector<Access> accesses,
              int priority = 0, std::string name = {});

  /// Blocks until every submitted task has executed, then rethrows the
  /// first exception any task body raised (clearing it, so the engine
  /// stays usable afterwards).
  void wait_all();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  /// Starts recording one obs event per executed task into an internal
  /// recorder (off by default; call before submitting).  take_trace()
  /// returns and clears the recording.
  void enable_tracing();
  [[nodiscard]] std::vector<TraceEvent> take_trace();

  /// Routes task events into an external recorder instead (one "worker N"
  /// track per worker) so engine activity lines up with vmpi/sim tracks in
  /// the exported timeline.  Call before submitting; the recorder must
  /// outlive the engine or a subsequent set_recorder(nullptr).
  void set_recorder(obs::Recorder* recorder);

 private:
  struct Task {
    std::function<void()> body;
    std::string name;
    int priority = 0;
    std::int64_t sequence = 0;  // submission order, for FIFO tie-breaking
    std::int64_t deps_remaining = 0;
    std::vector<std::int64_t> successors;
  };

  /// Per-handle bookkeeping for dependency inference.
  struct HandleState {
    std::int64_t last_writer = -1;
    std::vector<std::int64_t> readers_since_write;
  };

  void worker_loop(int worker_index);
  void make_ready_locked(std::int64_t task_id);
  /// Counts the inferred edge pred -> succ and wires it unless pred
  /// already retired.
  void add_edge_locked(std::int64_t pred, std::int64_t succ);

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::condition_variable idle_cv_;

  std::vector<Task> tasks_;
  std::vector<bool> done_;
  std::vector<HandleState> handles_;
  /// Ready heap entries: (priority, -sequence) max-heap via vector + pushes.
  std::vector<std::int64_t> ready_;

  std::int64_t pending_ = 0;  // submitted but not yet finished
  std::int64_t running_ = 0;
  EngineStats stats_;
  bool shutdown_ = false;
  /// First exception a task body threw; rethrown by wait_all().
  std::exception_ptr first_error_;

  /// Tracing sinks, one per worker, lazily registered (guarded by mutex_).
  obs::Recorder* recorder_ = nullptr;
  std::unique_ptr<obs::Recorder> owned_recorder_;
  std::vector<obs::TrackSink*> sinks_;

  std::vector<std::thread> threads_;
};

}  // namespace anyblock::runtime
