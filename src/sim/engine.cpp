#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/implicit_workload.hpp"
#include "sim/pool.hpp"
#include "sim/workload_25d.hpp"
#include "util/stopwatch.hpp"

namespace anyblock::sim {
namespace {

const char* task_type_name(TaskType type) {
  switch (type) {
    case TaskType::kGetrf: return "getrf";
    case TaskType::kPotrf: return "potrf";
    case TaskType::kTrsm: return "trsm";
    case TaskType::kGemm: return "gemm";
    case TaskType::kSyrk: return "syrk";
    case TaskType::kLoad: return "load";
    case TaskType::kFlush: return "flush";
    case TaskType::kReduce: return "reduce";
  }
  return "task";
}

/// Scheduling priority: smaller key runs first.  Earlier iterations beat
/// later ones; within an iteration, factorizations beat solves beat updates
/// — keeping the critical path (the panel chain) moving.
std::int64_t priority_key(const TaskView& task) {
  int rank = 3;
  switch (task.type) {
    case TaskType::kLoad:
    case TaskType::kFlush:
    case TaskType::kReduce:
    case TaskType::kGetrf:
    case TaskType::kPotrf: rank = 0; break;
    case TaskType::kTrsm: rank = 1; break;
    case TaskType::kSyrk: rank = 2; break;
    case TaskType::kGemm: rank = 3; break;
  }
  return static_cast<std::int64_t>(task.l) * 4 + rank;
}

struct ReadyEntry {
  std::int64_t key;
  std::int64_t task;
  std::int64_t slot;  ///< the task's decoded view (SimulatorCore::views_)
};

struct ReadyLater {
  bool operator()(const ReadyEntry& x, const ReadyEntry& y) const {
    if (x.key != y.key) return x.key > y.key;
    // Construction-order ordinal: ties resolve the same way for a
    // generator and its materialized oracle, whose ids equal its ordinals.
    return x.task > y.task;
  }
};

/// Model adapter over a fully materialized Workload, for sim::simulate:
/// hand-built graphs and the test oracles that check the generators.
class MaterializedModel {
 public:
  MaterializedModel(Workload work, std::int64_t nodes)
      : work_(std::move(work)), nodes_(nodes) {}

  [[nodiscard]] std::int64_t task_count() const { return work_.task_count(); }
  [[nodiscard]] double total_flops() const { return work_.total_flops; }
  /// Everything stays resident, so the "frontier" is the whole DAG.
  [[nodiscard]] std::int64_t frontier_peak() const {
    return work_.task_count();
  }

  template <class F>
  void for_each_initially_ready(F&& f) const {
    // Same pass as the seed engine: validate every task's node, seed the
    // dependency-free ones in id order.
    for (std::size_t id = 0; id < work_.tasks.size(); ++id) {
      const SimTask& task = work_.tasks[id];
      if (task.node < 0 || task.node >= nodes_)
        throw std::invalid_argument("task node outside the machine");
      if (task.deps == 0) f(static_cast<std::int64_t>(id));
    }
  }

  [[nodiscard]] TaskView task(std::int64_t id) const {
    const SimTask& task = work_.tasks[static_cast<std::size_t>(id)];
    TaskView view;
    view.type = task.type;
    view.l = task.l;
    view.i = task.i;
    view.j = task.j;
    view.node = task.node;
    view.successor = task.successor;
    view.publishes = task.publishes;
    return view;
  }

  bool satisfy(std::int64_t id) {
    return --work_.tasks[static_cast<std::size_t>(id)].deps == 0;
  }

  using InstanceHandle = const Instance*;
  InstanceHandle publish(std::int64_t instance_id, const TaskView&) {
    return instance(instance_id);
  }
  [[nodiscard]] InstanceHandle instance(std::int64_t instance_id) const {
    return &work_.instances[static_cast<std::size_t>(instance_id)];
  }
  void release(std::int64_t) {}

  static std::int32_t producer_node(InstanceHandle handle) {
    return handle->producer_node;
  }
  static std::int64_t group_count(InstanceHandle handle) {
    return static_cast<std::int64_t>(handle->groups.size());
  }
  static std::int32_t group_node(InstanceHandle handle, std::int64_t g) {
    return handle->groups[static_cast<std::size_t>(g)].node;
  }
  template <class F>
  static void for_each_waiter(InstanceHandle handle, std::int64_t g, F&& f) {
    for (const std::int64_t waiter :
         handle->groups[static_cast<std::size_t>(g)].waiters)
      f(waiter);
  }

 private:
  Workload work_;
  std::int64_t nodes_;
};

/// The event loop, templated over the DAG representation (Model) so the
/// hot path pays for neither virtual dispatch nor the representation it
/// does not use.
template <class Model>
class SimulatorCore {
 public:
  SimulatorCore(Model& model, const MachineConfig& machine)
      : model_(model),
        machine_(machine),
        injector_(machine.faults),  // validates the plan
        free_workers_(static_cast<std::size_t>(machine.nodes),
                      machine.workers_per_node),
        ready_(static_cast<std::size_t>(machine.nodes)),
        out_free_(static_cast<std::size_t>(machine.nodes), 0.0),
        in_free_(static_cast<std::size_t>(machine.nodes), 0.0) {
    report_.per_node.resize(static_cast<std::size_t>(machine.nodes));
    if (machine_.recorder != nullptr) {
      node_sinks_.reserve(static_cast<std::size_t>(machine.nodes));
      for (std::int64_t node = 0; node < machine.nodes; ++node)
        node_sinks_.push_back(
            machine_.recorder->track("node " + std::to_string(node)));
    }
    if (machine.workers_per_node < 1)
      throw std::invalid_argument("need at least one worker per node");
    if (machine.collective.algorithm == comm::Algorithm::kPipelinedChain &&
        machine.collective.chain_chunks < 1)
      throw std::invalid_argument("chain_chunks must be at least 1");
    if (!machine.node_speed.empty()) {
      if (machine.node_speed.size() !=
          static_cast<std::size_t>(machine.nodes))
        throw std::invalid_argument("node_speed must list every node");
      for (const double speed : machine.node_speed) {
        if (speed <= 0.0)
          throw std::invalid_argument("node speeds must be positive");
      }
    }
  }

  SimReport run() {
    const Stopwatch watch;
    model_.for_each_initially_ready(
        [&](std::int64_t id) { enqueue_ready(id, 0.0); });

    while (!events_.empty()) {
      const Event event = events_.pop();
      now_ = event.time;
      ++report_.events;
      if (event.kind == Event::Kind::kTaskFinish) {
        on_task_finish(event);
      } else if (event.kind == Event::Kind::kRetransmit) {
        on_retransmit(event);
      } else {
        on_arrival(event);
      }
    }

    report_.makespan_seconds = now_;
    report_.total_flops = model_.total_flops();
    report_.tasks = model_.task_count();
    report_.faults = injector_.stats();
    report_.frontier_peak = model_.frontier_peak();
    report_.run_seconds = watch.seconds();
    return std::move(report_);
  }

 private:
  using InstanceHandle = typename Model::InstanceHandle;

  void push_event(double time, Event::Kind kind, std::int64_t a,
                  std::int32_t b, std::int32_t c = 0, std::int32_t src = -1,
                  std::int32_t attempt = 0, bool duplicate = false) {
    Event event;
    event.time = time;
    event.kind = kind;
    event.a = a;
    event.b = b;
    event.c = c;
    event.src = src;
    event.attempt = attempt;
    event.duplicate = duplicate;
    event.sequence = sequence_++;
    events_.push(event);
  }

  /// A task became runnable at `time`: start it if a worker is free on its
  /// node, otherwise park it in the node's priority queue.
  void enqueue_ready(std::int64_t task_id, double time) {
    const std::int64_t slot = views_.acquire();
    TaskView& task = views_[slot];
    task = model_.task(task_id);
    auto& free = free_workers_[static_cast<std::size_t>(task.node)];
    if (free > 0) {
      --free;
      start_task(task_id, slot, time);
    } else {
      // FIFO ablation: readiness order replaces the critical-path key.
      const std::int64_t key = machine_.priority_scheduling
                                   ? priority_key(task)
                                   : static_cast<std::int64_t>(ready_seq_++);
      ready_[static_cast<std::size_t>(task.node)].push({key, task_id, slot});
    }
  }

  void start_task(std::int64_t task_id, std::int64_t slot, double time) {
    const TaskView& task = views_[slot];
    const double duration =
        machine_.task_seconds(task.type) / machine_.perturbed_speed(task.node);
    auto& node = report_.per_node[static_cast<std::size_t>(task.node)];
    node.busy_seconds += duration;
    ++node.tasks;
    if (machine_.recorder != nullptr) {
      // Virtual-time interval: start and finish are both known here, so
      // the whole slice is recorded at schedule time.
      obs::Event event;
      event.kind = obs::EventKind::kSimTask;
      event.name = std::string(task_type_name(task.type)) + "(" +
                   std::to_string(task.i) + "," + std::to_string(task.j) +
                   ")";
      event.start_seconds = time;
      event.end_seconds = time + duration;
      event.priority = static_cast<int>(task.l);
      node_sinks_[static_cast<std::size_t>(task.node)]->record(
          std::move(event));
    }
    push_event(time + duration, Event::Kind::kTaskFinish, task_id,
               static_cast<std::int32_t>(slot));
  }

  void satisfy(std::int64_t task_id, double time) {
    if (model_.satisfy(task_id)) enqueue_ready(task_id, time);
  }

  void on_task_finish(const Event& event) {
    const TaskView task = views_[event.b];
    views_.release(event.b);

    // Free the worker; pull the best parked task on this node.
    auto& queue = ready_[static_cast<std::size_t>(task.node)];
    if (!queue.empty()) {
      const ReadyEntry next = queue.top();
      queue.pop();
      start_task(next.task, next.slot, now_);
    } else {
      ++free_workers_[static_cast<std::size_t>(task.node)];
    }

    // Chain successor (same tile, same node).
    if (task.successor >= 0) satisfy(task.successor, now_);

    // Published tile: local consumers now; remote groups receive messages
    // through the configured collective — the exact counterpart of
    // comm::multicast_send, so simulated message counts match the measured
    // vmpi counters per algorithm.
    if (task.publishes >= 0) {
      const InstanceHandle handle = model_.publish(task.publishes, task);
      const std::int64_t groups = Model::group_count(handle);
      for (std::int64_t g = 0; g < groups; ++g) {
        if (Model::group_node(handle, g) == task.node)
          Model::for_each_waiter(
              handle, g, [&](std::int64_t waiter) { satisfy(waiter, now_); });
      }
      switch (machine_.collective.algorithm) {
        case comm::Algorithm::kEagerP2P: {
          for (std::int64_t g = 0; g < groups; ++g) {
            const std::int32_t dst = Model::group_node(handle, g);
            if (dst == task.node) continue;
            send_tile(task.node, dst, task.publishes,
                      static_cast<std::int32_t>(g), 0, machine_.tile_bytes());
          }
          break;
        }
        case comm::Algorithm::kBinomialTree: {
          remote_groups(handle);
          forward_tree(handle, task.publishes, /*position=*/0, task.node);
          break;
        }
        case comm::Algorithm::kPipelinedChain: {
          // The producer pushes every chunk to the head of the chain; each
          // receiver relays chunks onward as they arrive (on_arrival).
          remote_groups(handle);
          if (remotes_.empty()) break;
          const std::int32_t head =
              Model::group_node(handle, remotes_[0]);
          for (std::int64_t chunk = 0; chunk < chain_chunks(); ++chunk) {
            send_tile(task.node, head, task.publishes, remotes_[0],
                      static_cast<std::int32_t>(chunk), chunk_bytes());
          }
          break;
        }
      }
      // No pending transfer references the instance (e.g. every consumer
      // was local): the model can reclaim it right away.
      if (inflight_.find(task.publishes) == nullptr)
        model_.release(task.publishes);
    }
  }

  [[nodiscard]] std::int64_t chain_chunks() const {
    return machine_.collective.chain_chunks;
  }
  [[nodiscard]] double chunk_bytes() const {
    return machine_.tile_bytes() / static_cast<double>(chain_chunks());
  }

  /// Fills remotes_ with the remote group indices of `handle`, in group
  /// order; position p in the broadcast tree maps to remotes_[p-1] (the
  /// producer is position 0).  One scratch vector: no per-event allocation.
  void remote_groups(InstanceHandle handle) {
    remotes_.clear();
    const std::int64_t groups = Model::group_count(handle);
    const std::int32_t producer = Model::producer_node(handle);
    for (std::int64_t g = 0; g < groups; ++g) {
      if (Model::group_node(handle, g) != producer)
        remotes_.push_back(static_cast<std::int32_t>(g));
    }
  }

  /// Binomial broadcast step: the holder at `position` sends the tile to
  /// positions position + 2^k for every 2^k > position still in range.
  /// Uses remotes_ as filled by the caller.
  void forward_tree(InstanceHandle handle, std::int64_t instance_id,
                    std::int64_t position, std::int32_t from_node) {
    const auto m = static_cast<std::int64_t>(remotes_.size()) + 1;
    for (std::int64_t step = 1; step < m; step *= 2) {
      if (step <= position) continue;
      const std::int64_t child = position + step;
      if (child >= m) break;
      const std::int32_t group_index =
          remotes_[static_cast<std::size_t>(child - 1)];
      send_tile(from_node, Model::group_node(handle, group_index),
                instance_id, group_index, 0, machine_.tile_bytes());
    }
  }

  /// Counts one more pending transfer event (arrival or retransmit)
  /// referencing `instance`.
  void ref_instance(std::int64_t instance) {
    ++inflight_.at_or_insert(instance, 0);
  }

  /// A pending transfer event referencing `instance` was consumed; when the
  /// last one goes, the model reclaims the instance (implicit mode recycles
  /// its group state — the mechanism that keeps memory at the frontier).
  void unref_instance(std::int64_t instance) {
    std::int64_t* refs = inflight_.find(instance);
    if (--*refs == 0) {
      inflight_.erase(instance);
      model_.release(instance);
    }
  }

  /// Schedules one transfer of `bytes` src -> dst; links serialize
  /// transfers in the order they are requested (full duplex: the out-link
  /// of the sender and the in-link of the receiver are distinct resources).
  ///
  /// `attempt` 0 is the application-level send; only it books the message
  /// counters and the kSimTransfer event, so report_.messages keeps
  /// matching the closed forms under faults.  Retransmissions (attempt > 0)
  /// occupy the wire all the same but count only in the fault stats.
  void send_tile(std::int32_t src, std::int32_t dst, std::int64_t instance,
                 std::int32_t group, std::int32_t chunk, double bytes,
                 std::int32_t attempt = 0) {
    fault::Fate fate;
    if (injector_.message_faults())
      fate = injector_.fate_of(src, dst, instance,
                               static_cast<std::uint64_t>(chunk), attempt);
    auto& out = out_free_[static_cast<std::size_t>(src)];
    auto& in = in_free_[static_cast<std::size_t>(dst)];
    const double start = std::max({now_, out, in});
    double wire_seconds = bytes / (machine_.link_bandwidth_gbps * 1e9);
    if (machine_.faults.link_jitter > 0.0) {
      // Deterministic per-transfer bandwidth factor in [1 - j, 1 + j].
      const double u = fault::unit_draw(
          machine_.faults.seed,
          {fault::kStreamLinkJitter, static_cast<std::uint64_t>(src),
           static_cast<std::uint64_t>(dst), static_cast<std::uint64_t>(instance),
           static_cast<std::uint64_t>(chunk),
           static_cast<std::uint64_t>(attempt)});
      wire_seconds /= 1.0 - machine_.faults.link_jitter +
                      2.0 * machine_.faults.link_jitter * u;
    }
    const double end = start + wire_seconds;
    out = end;
    in = end;
    if (attempt == 0) {
      auto& node = report_.per_node[static_cast<std::size_t>(src)];
      ++node.messages_sent;
      node.bytes_sent += bytes;
      ++report_.messages;
      if (machine_.recorder != nullptr) {
        // Link occupancy window on the sender's track: one event per
        // simulated message, so kSimTransfer counts equal report_.messages.
        obs::Event event;
        event.kind = obs::EventKind::kSimTransfer;
        event.start_seconds = start;
        event.end_seconds = end;
        event.source = src;
        event.dest = dst;
        event.tag = instance;
        event.bytes = static_cast<std::int64_t>(bytes);
        event.flow = machine_.recorder->next_flow();
        node_sinks_[static_cast<std::size_t>(src)]->record(std::move(event));
      }
    }
    if (fate.dropped) {
      injector_.note_drop();
      record_fault(src, "drop", src, dst, instance);
      if (attempt >= machine_.faults.max_retries)
        throw std::runtime_error(
            "sim: message permanently lost after " +
            std::to_string(attempt + 1) + " attempts (instance " +
            std::to_string(instance) + ", node " + std::to_string(src) +
            " -> " + std::to_string(dst) + ")");
      // Receiver-driven recovery in virtual time: the receiver notices the
      // missing message one (backed-off) timeout after it should have
      // arrived and requests a retransmission.
      injector_.note_timeout_wait();
      const double timeout = machine_.faults.recv_timeout_ms * 1e-3 *
                             std::pow(2.0, static_cast<double>(attempt));
      ref_instance(instance);
      push_event(end + machine_.latency_seconds() + timeout,
                 Event::Kind::kRetransmit, instance, group, chunk, src,
                 attempt + 1);
      return;
    }
    double extra = 0.0;
    if (fate.delay_seconds > 0.0) {
      injector_.note_delay();
      record_fault(src, "delay", src, dst, instance);
      extra = fate.delay_seconds;
    }
    ref_instance(instance);
    push_event(end + machine_.latency_seconds() + extra, Event::Kind::kArrival,
               instance, group, chunk, src);
    if (fate.duplicated) {
      injector_.note_duplicate();
      record_fault(src, "duplicate", src, dst, instance);
      ref_instance(instance);
      push_event(end + machine_.latency_seconds() + extra,
                 Event::Kind::kArrival, instance, group, chunk, src, attempt,
                 /*duplicate=*/true);
    }
  }

  /// The virtual receiver timed out on a dropped transmission: push the
  /// retained copy again with the bumped attempt number (it can be dropped
  /// again — the backoff above keeps doubling).
  void on_retransmit(const Event& event) {
    injector_.note_retry();
    const InstanceHandle handle = model_.instance(event.a);
    const std::int32_t dst = Model::group_node(handle, event.b);
    record_fault(dst, "retry", event.src, dst, event.a);
    const double bytes =
        machine_.collective.algorithm == comm::Algorithm::kPipelinedChain
            ? chunk_bytes()
            : machine_.tile_bytes();
    send_tile(event.src, dst, event.a, event.b, event.c, bytes,
              event.attempt);
    unref_instance(event.a);
  }

  /// Records a fault/recovery event on a node track (virtual time; the
  /// simulator is single-threaded so any track is safe to append to).
  void record_fault(std::int32_t track_node, const char* what,
                    std::int32_t src, std::int32_t dst,
                    std::int64_t instance) {
    if (machine_.recorder == nullptr) return;
    obs::Event event;
    event.kind = obs::EventKind::kFault;
    event.name = what;
    event.start_seconds = event.end_seconds = now_;
    event.source = src;
    event.dest = dst;
    event.tag = instance;
    node_sinks_[static_cast<std::size_t>(track_node)]->record(
        std::move(event));
  }

  /// Position of `group_index` in the remote order (1-based, producer = 0).
  [[nodiscard]] std::int64_t position_of(std::int32_t group_index) const {
    for (std::size_t p = 0; p < remotes_.size(); ++p) {
      if (remotes_[p] == group_index) return static_cast<std::int64_t>(p) + 1;
    }
    throw std::logic_error("arrival at a node outside the multicast group");
  }

  void on_arrival(const Event& event) {
    const std::int64_t instance_id = event.a;
    const std::int32_t group_index = event.b;
    const std::int32_t chunk = event.c;
    const InstanceHandle handle = model_.instance(instance_id);
    const std::int32_t group_node = Model::group_node(handle, group_index);
    if (event.duplicate) {
      // At-least-once delivery: the injected extra copy is detected by its
      // repeated sequence number and discarded before it can satisfy
      // waiters, relay chain chunks, or bump the chunk counter.
      injector_.note_dedup_discard();
      record_fault(group_node, "dedup", event.src, group_node, instance_id);
      unref_instance(instance_id);
      return;
    }
    switch (machine_.collective.algorithm) {
      case comm::Algorithm::kEagerP2P: {
        Model::for_each_waiter(
            handle, group_index,
            [&](std::int64_t waiter) { satisfy(waiter, now_); });
        break;
      }
      case comm::Algorithm::kBinomialTree: {
        Model::for_each_waiter(
            handle, group_index,
            [&](std::int64_t waiter) { satisfy(waiter, now_); });
        // This receiver becomes a forwarder at its tree position.
        remote_groups(handle);
        forward_tree(handle, instance_id, position_of(group_index),
                     group_node);
        break;
      }
      case comm::Algorithm::kPipelinedChain: {
        // Relay the chunk down the chain, then count it; waiters run only
        // once the whole tile (every chunk) has arrived.
        remote_groups(handle);
        const std::int64_t position = position_of(group_index);
        if (position < static_cast<std::int64_t>(remotes_.size())) {
          const std::int32_t next =
              remotes_[static_cast<std::size_t>(position)];
          send_tile(group_node, Model::group_node(handle, next), instance_id,
                    next, chunk, chunk_bytes());
        }
        // Chunk counters key by (instance, group); entries are erased once
        // the tile completes, so the map tracks in-flight tiles only.
        const std::int64_t key = instance_id * machine_.nodes + group_index;
        std::int64_t& arrived = chain_arrived_.at_or_insert(key, 0);
        if (++arrived == chain_chunks()) {
          chain_arrived_.erase(key);
          Model::for_each_waiter(
              handle, group_index,
              [&](std::int64_t waiter) { satisfy(waiter, now_); });
        }
        break;
      }
    }
    unref_instance(instance_id);
  }

  Model& model_;
  const MachineConfig& machine_;
  /// Deterministic message-fault schedule shared with vmpi (counters only
  /// when the plan is disabled — every fate_of call is skipped then).
  fault::FaultInjector injector_;
  SimReport report_;

  CalendarQueue events_;
  std::uint64_t sequence_ = 0;
  std::uint64_t ready_seq_ = 0;
  double now_ = 0.0;

  std::vector<int> free_workers_;
  std::vector<std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                                  ReadyLater>>
      ready_;
  /// Decoded views of ready and running tasks, by slot (ReadyEntry::slot,
  /// then Event::b of the finish event): a generator decodes each task
  /// once, when it becomes ready, not again when it starts or finishes.
  RecyclingPool<TaskView> views_;
  std::vector<double> out_free_;
  std::vector<double> in_free_;
  /// Chunks arrived so far per (instance, group), chain mode only.
  FlatMap64 chain_arrived_;
  /// Pending transfer events per instance; zero => the model may reclaim.
  FlatMap64 inflight_;
  /// Scratch for remote_groups() (cleared per use, allocated once).
  std::vector<std::int32_t> remotes_;
  /// Per-node trace tracks (empty when machine_.recorder is null).
  std::vector<obs::TrackSink*> node_sinks_;
};

/// Builds the model (timed as build_seconds), then runs it.
template <class MakeModel>
SimReport simulate_model(const MachineConfig& machine, MakeModel&& make_model) {
  const Stopwatch watch;
  auto model = make_model();
  const double build = watch.seconds();
  SimReport report = SimulatorCore<decltype(model)>(model, machine).run();
  report.build_seconds = build;
  return report;
}

}  // namespace

double SimReport::efficiency(const MachineConfig& machine) const {
  double busy = 0.0;
  for (const auto& node : per_node) busy += node.busy_seconds;
  const double capacity = makespan_seconds *
                          static_cast<double>(machine.nodes) *
                          machine.workers_per_node;
  return capacity > 0 ? busy / capacity : 0.0;
}

SimReport simulate(Workload workload, const MachineConfig& machine) {
  return simulate_model(machine, [&] {
    return MaterializedModel(std::move(workload), machine.nodes);
  });
}

SimReport simulate_lu(std::int64_t t, const core::Distribution& distribution,
                      const MachineConfig& machine) {
  return simulate_lu_25d(t, core::one_layer(distribution), machine);
}

SimReport simulate_cholesky(std::int64_t t,
                            const core::Distribution& distribution,
                            const MachineConfig& machine) {
  return simulate_cholesky_25d(t, core::one_layer(distribution), machine);
}

SimReport simulate_lu_25d(std::int64_t t,
                          const core::ReplicatedDistribution& distribution,
                          const MachineConfig& machine) {
  return simulate_model(machine, [&] {
    return Implicit25dWorkload(SimKernel::kLu, t, distribution, machine);
  });
}

SimReport simulate_cholesky_25d(
    std::int64_t t, const core::ReplicatedDistribution& distribution,
    const MachineConfig& machine) {
  return simulate_model(machine, [&] {
    return Implicit25dWorkload(SimKernel::kCholesky, t, distribution,
                               machine);
  });
}

SimReport simulate_syrk(std::int64_t t, std::int64_t k,
                        const core::Distribution& dist_c,
                        const core::Distribution& dist_a,
                        const MachineConfig& machine) {
  return simulate_model(machine, [&] {
    return ImplicitWorkload(t, k, dist_c, dist_a, machine);
  });
}

}  // namespace anyblock::sim
