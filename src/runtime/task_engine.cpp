#include "runtime/task_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace anyblock::runtime {

TaskEngine::TaskEngine(int workers) {
  if (workers < 1) throw std::invalid_argument("need at least one worker");
  sinks_.assign(static_cast<std::size_t>(workers), nullptr);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

TaskEngine::~TaskEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (pending_ > 0) {
      // Destroying an engine with live tasks would drop submitted work on
      // the floor (and race the teardown); mirror std::thread's stance on
      // destroying a joinable thread: fail loudly, don't limp on.
      std::fprintf(stderr,
                   "anyblock::runtime::TaskEngine destroyed with %lld "
                   "unfinished task(s); call wait_all() first\n",
                   static_cast<long long>(pending_));
      std::terminate();
    }
    if (first_error_) {
      std::fprintf(stderr,
                   "anyblock::runtime::TaskEngine destroyed with an "
                   "unobserved task failure; wait_all() would have "
                   "rethrown it\n");
    }
    shutdown_ = true;
  }
  ready_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

HandleId TaskEngine::register_data() {
  const std::lock_guard<std::mutex> lock(mutex_);
  handles_.emplace_back();
  return static_cast<HandleId>(handles_.size()) - 1;
}

void TaskEngine::add_edge_locked(std::int64_t pred, std::int64_t succ) {
  if (pred < 0) return;
  ++stats_.inferred_edges;
  if (done_[static_cast<std::size_t>(pred)]) return;
  tasks_[static_cast<std::size_t>(pred)].successors.push_back(succ);
  ++tasks_[static_cast<std::size_t>(succ)].deps_remaining;
  ++stats_.dependency_edges;
}

void TaskEngine::submit(std::function<void()> body,
                        std::vector<Access> accesses, int priority,
                        std::string name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Validate before touching any engine state so a bad handle leaves the
  // engine usable (and its destructor callable) after the throw.
  for (const Access& access : accesses) {
    if (access.handle < 0 ||
        access.handle >= static_cast<HandleId>(handles_.size()))
      throw std::out_of_range("unknown data handle");
  }
  const auto task_id = static_cast<std::int64_t>(tasks_.size());
  Task task;
  task.body = std::move(body);
  task.name = std::move(name);
  task.priority = priority;
  task.sequence = task_id;
  tasks_.push_back(std::move(task));
  done_.push_back(false);
  ++pending_;

  for (const Access& access : accesses) {
    HandleState& state = handles_[static_cast<std::size_t>(access.handle)];
    if (access.mode == AccessMode::kRead) {
      // RAW: run after the last writer.
      add_edge_locked(state.last_writer, task_id);
      state.readers_since_write.push_back(task_id);
    } else {
      // WAW on the last writer, WAR on every reader since then.
      add_edge_locked(state.last_writer, task_id);
      for (const std::int64_t reader : state.readers_since_write) {
        if (reader != task_id) add_edge_locked(reader, task_id);
      }
      state.readers_since_write.clear();
      state.last_writer = task_id;
    }
  }

  if (tasks_[static_cast<std::size_t>(task_id)].deps_remaining == 0)
    make_ready_locked(task_id);
}

void TaskEngine::make_ready_locked(std::int64_t task_id) {
  ready_.push_back(task_id);
  std::push_heap(ready_.begin(), ready_.end(),
                 [this](std::int64_t a, std::int64_t b) {
                   const Task& ta = tasks_[static_cast<std::size_t>(a)];
                   const Task& tb = tasks_[static_cast<std::size_t>(b)];
                   if (ta.priority != tb.priority)
                     return ta.priority < tb.priority;
                   return ta.sequence > tb.sequence;  // FIFO within priority
                 });
  ready_cv_.notify_one();
}

void TaskEngine::worker_loop(int worker_index) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto heap_less = [this](std::int64_t a, std::int64_t b) {
    const Task& ta = tasks_[static_cast<std::size_t>(a)];
    const Task& tb = tasks_[static_cast<std::size_t>(b)];
    if (ta.priority != tb.priority) return ta.priority < tb.priority;
    return ta.sequence > tb.sequence;
  };
  while (true) {
    ready_cv_.wait(lock, [this] { return shutdown_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (shutdown_) return;
      continue;
    }
    std::pop_heap(ready_.begin(), ready_.end(), heap_less);
    const std::int64_t task_id = ready_.back();
    ready_.pop_back();

    ++running_;
    stats_.peak_concurrency = std::max(stats_.peak_concurrency, running_);
    // Move the body out so the task's captures die with this execution.
    std::function<void()> body =
        std::move(tasks_[static_cast<std::size_t>(task_id)].body);
    lock.unlock();
    const auto started = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
      body();
    } catch (...) {
      // A throwing body must not escape the worker thread (std::terminate)
      // nor leave pending_ stuck (wait_all deadlock): record the failure
      // and retire the task normally below.
      error = std::current_exception();
    }
    const auto finished = std::chrono::steady_clock::now();
    lock.lock();

    if (recorder_ != nullptr) {
      auto*& sink = sinks_[static_cast<std::size_t>(worker_index)];
      if (sink == nullptr)
        sink = recorder_->track("worker " + std::to_string(worker_index));
      const Task& task = tasks_[static_cast<std::size_t>(task_id)];
      obs::Event event;
      event.kind = obs::EventKind::kTask;
      event.name = task.name;
      event.priority = task.priority;
      event.failed = error != nullptr;
      event.start_seconds = recorder_->seconds(started);
      event.end_seconds = recorder_->seconds(finished);
      sink->record(std::move(event));
    }
    if (error) {
      ++stats_.tasks_failed;
      if (!first_error_) first_error_ = error;
    }
    --running_;
    ++stats_.tasks_executed;
    done_[static_cast<std::size_t>(task_id)] = true;
    for (const std::int64_t succ :
         tasks_[static_cast<std::size_t>(task_id)].successors) {
      if (--tasks_[static_cast<std::size_t>(succ)].deps_remaining == 0)
        make_ready_locked(succ);
    }
    tasks_[static_cast<std::size_t>(task_id)].successors.clear();
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

void TaskEngine::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    // First failure wins, mirroring vmpi::run_ranks; clearing it keeps the
    // engine reusable after the caller handles the exception.
    std::exception_ptr error;
    std::swap(error, first_error_);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

EngineStats TaskEngine::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TaskEngine::enable_tracing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!owned_recorder_) owned_recorder_ = std::make_unique<obs::Recorder>();
  if (recorder_ != owned_recorder_.get()) {
    recorder_ = owned_recorder_.get();
    std::fill(sinks_.begin(), sinks_.end(), nullptr);
  }
}

void TaskEngine::set_recorder(obs::Recorder* recorder) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (recorder_ == recorder) return;
  recorder_ = recorder;
  std::fill(sinks_.begin(), sinks_.end(), nullptr);
}

std::vector<TraceEvent> TaskEngine::take_trace() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!owned_recorder_) return {};
  const obs::Trace trace = owned_recorder_->take();
  lock.unlock();
  std::vector<TraceEvent> out;
  for (const obs::Track& track : trace.tracks) {
    // Track names are "worker N" by construction.
    const int worker = std::atoi(track.name.c_str() + 7);
    for (const obs::Event& event : track.events) {
      if (event.kind != obs::EventKind::kTask) continue;
      out.push_back(
          {event.name, worker, event.start_seconds, event.end_seconds});
    }
  }
  return out;
}

}  // namespace anyblock::runtime
