#include "vmpi/vmpi.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace anyblock::vmpi {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Messages reference their payload through a shared pointer so a
/// multisend can fan one buffer out to many mailboxes without copying.
/// `exclusive` records at delivery time whether this mailbox owns the
/// buffer alone (plain send) or shares it with other receivers
/// (multisend); a use_count() check at extraction would race with the
/// other receivers' reference drops.  Fault runs always share: the
/// sender-side retention buffer keeps a reference for retransmission.
struct Message {
  int source;
  std::int64_t tag;
  std::shared_ptr<Payload> data;
  bool exclusive;
  /// Trace flow id tying this message's recv event to its send event
  /// (0 when tracing is off).
  std::uint64_t flow = 0;
  /// Per-(source, dest, tag) stream sequence number (fault runs only).
  std::uint64_t seq = 0;
};

/// Identifies one ordered message stream into a mailbox.  The destination
/// is implicit (the mailbox), so (source, tag) is the key.
struct StreamKey {
  int source;
  std::int64_t tag;
  bool operator==(const StreamKey&) const = default;
};

struct StreamKeyHash {
  std::size_t operator()(const StreamKey& key) const noexcept {
    const auto source = static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(static_cast<unsigned>(key.source)));
    const auto tag = static_cast<std::uint64_t>(key.tag);
    return static_cast<std::size_t>(
        (source << 32 | (source >> 32)) ^ tag * 0x9e3779b97f4a7c15ULL);
  }
};

template <typename Value>
using StreamMap = std::unordered_map<StreamKey, Value, StreamKeyHash>;

/// One mailbox per destination rank.  The stream maps below are only
/// touched while a fault injector is active; fault-free runs never allocate
/// them.
struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> messages;
  /// Next sequence number to stamp on a send of each stream.
  StreamMap<std::uint64_t> next_send_seq;
  /// Sequence number the receiver consumes next per stream; anything below
  /// is a duplicate, anything above waits for the gap to fill.
  StreamMap<std::uint64_t> next_recv_seq;
  /// Sent-but-not-yet-consumed messages per stream, for receiver-driven
  /// retransmission.  Pruned as soon as a message is consumed, so the
  /// buffer never outgrows the in-flight window.
  StreamMap<std::deque<Message>> retention;
};

/// Extracts the payload from a delivered message: moves when this mailbox
/// owned the buffer exclusively, copies when it came from a multisend or a
/// fault-mode send (the retention buffer may still reference it).
Payload extract(Message&& message) {
  if (message.exclusive) return std::move(*message.data);
  return *message.data;
}

/// A message parked by the delay thread until its due time.
struct DelayedMessage {
  Clock::time_point due;
  std::uint64_t order;  ///< FIFO tie-break for equal due times
  int dest;
  Message message;
};

bool delayed_after(const DelayedMessage& a, const DelayedMessage& b) {
  if (a.due != b.due) return a.due > b.due;
  return a.order > b.order;
}

}  // namespace

class World {
 public:
  explicit World(int ranks, obs::Recorder* recorder = nullptr,
                 fault::FaultInjector* injector = nullptr,
                 Transport* transport = nullptr)
      : size_(ranks),
        mailboxes_(static_cast<std::size_t>(ranks)),
        traffic_(static_cast<std::size_t>(ranks)),
        traffic_mutexes_(static_cast<std::size_t>(ranks)),
        recorder_(recorder),
        faults_(injector != nullptr && injector->message_faults() ? injector
                                                                  : nullptr),
        transport_(transport) {
    if (transport_ != nullptr) {
      if (transport_->world_size() != ranks)
        throw std::invalid_argument(
            "vmpi: transport spans " +
            std::to_string(transport_->world_size()) + " ranks but the run " +
            "needs " + std::to_string(ranks));
      local_.assign(static_cast<std::size_t>(ranks), 0);
      for (const int r : transport_->local_ranks())
        local_[static_cast<std::size_t>(r)] = 1;
      // Namespace trace flow ids by process so the per-process trace files
      // of one mesh merge with their send→recv arrows intact.
      if (transport_->process_count() > 1)
        flow_namespace_ =
            (static_cast<std::uint64_t>(transport_->process_index()) + 1)
            << 48;
    }
    // Sinks are registered up front, before the rank threads start, so
    // each thread only ever appends to its own pre-existing track.
    if (recorder_ != nullptr) {
      sinks_.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r)
        sinks_.push_back(recorder_->track("rank " + std::to_string(r)));
    }
    if (faults_ != nullptr) {
      default_recv_options_.timeout_seconds =
          faults_->plan().recv_timeout_ms * 1e-3;
      default_recv_options_.max_retries = faults_->plan().max_retries;
    }
    if (transport_ != nullptr)
      transport_->attach(
          [this](WireMessage&& message) { on_remote(std::move(message)); });
  }

  ~World() {
    // Stop inbound remote deliveries before the mailboxes die; detach()
    // blocks until any in-flight sink call has returned.
    if (transport_ != nullptr) transport_->detach();
    {
      const std::lock_guard<std::mutex> lock(delay_mutex_);
      delay_shutdown_ = true;
    }
    delay_cv_.notify_all();
    if (delay_thread_.joinable()) delay_thread_.join();
  }

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Transport* transport() const { return transport_; }

  [[nodiscard]] bool is_local(int rank) const {
    return transport_ == nullptr || local_[static_cast<std::size_t>(rank)];
  }

  void send(int source, int dest, std::int64_t tag, Payload data) {
    check_dest(dest);
    count_sent(source, 1, static_cast<std::int64_t>(data.size()));
    const std::uint64_t flow =
        record_send(source, dest, tag, static_cast<std::int64_t>(data.size()),
                    /*flow=*/0);
    if (!is_local(dest)) {
      transport_->send({source, dest, tag, flow, /*seq=*/0, std::move(data)});
      return;
    }
    Message message{source, tag, std::make_shared<Payload>(std::move(data)),
                    /*exclusive=*/faults_ == nullptr, flow};
    if (faults_ == nullptr) {
      deliver(dest, std::move(message));
      return;
    }
    inject(dest, std::move(message));
  }

  void multisend(int source, const std::vector<int>& dests, std::int64_t tag,
                 const Payload& data) {
    for (const int dest : dests) check_dest(dest);
    count_sent(source, static_cast<std::int64_t>(dests.size()),
               static_cast<std::int64_t>(dests.size()) *
                   static_cast<std::int64_t>(data.size()));
    // One flow id for the whole fan-out: the exporter draws one arrow per
    // destination from the shared send instant.
    std::uint64_t flow = 0;
    for (const int dest : dests)
      flow = record_send(source, dest, tag,
                         static_cast<std::int64_t>(data.size()), flow);
    std::shared_ptr<Payload> shared;  // allocated only if a local dest needs it
    for (const int dest : dests) {
      if (!is_local(dest)) {
        // Remote destinations get their own serialized copy; the shared
        // buffer cannot span processes.
        transport_->send({source, dest, tag, flow, /*seq=*/0, data});
        continue;
      }
      if (shared == nullptr) shared = std::make_shared<Payload>(data);
      Message message{source, tag, shared, /*exclusive=*/false, flow};
      if (faults_ == nullptr)
        deliver(dest, std::move(message));
      else
        inject(dest, std::move(message));
    }
  }

  /// The one receive loop.  With `options` every wait is bounded: on a
  /// timeout the missing message is retransmitted (fault runs) and the wait
  /// doubles, until RecvTimeoutError escapes after options->max_retries
  /// retransmissions.  Without options the wait has no deadline, except
  /// under a fault injector, which lends every receive the plan's options.
  Payload recv(int self, int source, std::int64_t tag,
               const RecvOptions* options) {
    if (options == nullptr && faults_ != nullptr)
      options = &default_recv_options_;
    int attempt = 0;
    double wait_seconds = 0.0;
    Clock::time_point deadline;
    if (options != nullptr) {
      check_options(*options);
      wait_seconds = options->timeout_seconds;
      deadline = Clock::now() + to_duration(wait_seconds);
    }
    bool timed_out = false;
    Mailbox& box = mailboxes_[static_cast<std::size_t>(self)];
    std::unique_lock<std::mutex> lock(box.mutex);
    while (true) {
      throw_if_aborted();
      // After a timeout this match still takes a message that raced it.
      if (std::optional<Message> message = match(box, self, source, tag)) {
        lock.unlock();
        return receive_payload(self, std::move(*message));
      }
      if (timed_out) {
        timed_out = false;
        if (faults_ != nullptr) faults_->note_timeout_wait();
        record_fault(self, "timeout", source, self, tag);
        if (attempt >= options->max_retries)
          throw RecvTimeoutError(source, tag, attempt + 1);
        ++attempt;
        retransmit(box, lock, self, source, tag, attempt);
        wait_seconds *= 2.0;
        deadline = Clock::now() + to_duration(wait_seconds);
        continue;  // the retransmission may already sit in the mailbox
      }
      if (options == nullptr)
        box.cv.wait(lock);
      else
        timed_out =
            box.cv.wait_until(lock, deadline) == std::cv_status::timeout;
    }
  }

  /// Marks the run aborted (a local rank body threw) and wakes every
  /// waiter, so blocked recv calls throw RunAborted.  Each lock is taken
  /// once after the flag is set: a waiter either sees the flag before it
  /// sleeps or is asleep when the notify comes.
  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (Mailbox& box : mailboxes_) {
      { const std::lock_guard<std::mutex> lock(box.mutex); }
      box.cv.notify_all();
    }
  }

  TrafficStats traffic(int rank) {
    const std::lock_guard<std::mutex> lock(
        traffic_mutexes_[static_cast<std::size_t>(rank)]);
    return traffic_[static_cast<std::size_t>(rank)];
  }

 private:
  /// Inbound envelope from a remote process, invoked on the transport's
  /// event thread.  Re-enters the exact local delivery path: under a fault
  /// injector the message passes through inject(), which stamps its stream
  /// sequence number (arrival order equals send order per stream — the
  /// transport contract), retains it for receiver-driven retransmission and
  /// applies the seeded fate — so drop/duplicate/delay chaos behaves
  /// identically whether the sender was a local thread or another process.
  void on_remote(WireMessage&& wire) {
    const int dest = wire.dest;
    Message message{wire.source, wire.tag,
                    std::make_shared<Payload>(std::move(wire.data)),
                    /*exclusive=*/faults_ == nullptr, wire.flow};
    if (faults_ == nullptr) {
      deliver(dest, std::move(message));
      return;
    }
    inject(dest, std::move(message));
  }

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  void throw_if_aborted() const {
    if (aborted()) throw RunAborted();
  }

  void check_dest(int dest) const {
    if (dest < 0 || dest >= size_)
      throw std::out_of_range("vmpi send: bad destination rank");
  }

  static void check_options(const RecvOptions& options) {
    if (options.timeout_seconds <= 0.0)
      throw std::invalid_argument("vmpi recv: timeout must be > 0");
    if (options.max_retries < 0)
      throw std::invalid_argument("vmpi recv: max_retries must be >= 0");
  }

  void deliver(int dest, Message message) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    {
      const std::lock_guard<std::mutex> lock(box.mutex);
      box.messages.push_back(std::move(message));
    }
    box.cv.notify_all();
  }

  /// Fault-mode send path: stamps the stream sequence number, retains the
  /// message for possible retransmission, then applies the injector's fate
  /// for the original transmission (attempt 0).
  void inject(int dest, Message message) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    {
      const std::lock_guard<std::mutex> lock(box.mutex);
      const StreamKey key{message.source, message.tag};
      message.seq = box.next_send_seq[key]++;
      box.retention[key].push_back(message);
    }
    const fault::Fate fate = faults_->fate_of(message.source, dest, message.tag,
                                              message.seq, /*attempt=*/0);
    apply_fate(dest, std::move(message), fate, /*record=*/true);
  }

  /// Applies one transmission fate: swallow, duplicate, park at the delay
  /// thread, or deliver.  `record` is true only on the original send path,
  /// where the calling thread owns the source rank's trace track; the
  /// retransmit and delay paths pass false (counters still tick).
  void apply_fate(int dest, Message message, const fault::Fate& fate,
                  bool record) {
    if (fate.dropped) {
      faults_->note_drop();
      if (record)
        record_fault(message.source, "drop", message.source, dest,
                     message.tag);
      return;
    }
    if (fate.duplicated) {
      faults_->note_duplicate();
      if (record)
        record_fault(message.source, "duplicate", message.source, dest,
                     message.tag);
    }
    if (fate.delay_seconds > 0.0) {
      faults_->note_delay();
      if (record)
        record_fault(message.source, "delay", message.source, dest,
                     message.tag);
    }
    const int copies = fate.duplicated ? 2 : 1;
    for (int copy = 0; copy < copies; ++copy) {
      Message instance = copy + 1 < copies ? message : std::move(message);
      if (fate.delay_seconds > 0.0)
        schedule_delayed(dest, std::move(instance), fate.delay_seconds);
      else
        deliver(dest, std::move(instance));
    }
  }

  /// Removes a stale (already-consumed seq) message from the queue,
  /// counting and tracing the dedup.  Must run on rank `self`'s thread with
  /// the mailbox lock held; advances the iterator past the erased element.
  void discard_duplicate(Mailbox& box, std::deque<Message>::iterator& it,
                         int self) {
    faults_->note_dedup_discard();
    record_fault(self, "dedup", it->source, self, it->tag);
    it = box.messages.erase(it);
  }

  /// Finds the next consumable message matching (source, tag).  In fault
  /// mode a message is consumable only when its sequence number is exactly
  /// the next expected one for its stream — earlier numbers are duplicates
  /// (discarded here), later ones wait for the gap to be retransmitted.
  /// Caller holds the mailbox lock and runs on rank `self`'s thread.
  std::optional<Message> match(Mailbox& box, int self, int source,
                               std::int64_t tag) {
    for (auto it = box.messages.begin(); it != box.messages.end();) {
      if (it->tag != tag || it->source != source) {
        ++it;
        continue;
      }
      if (faults_ != nullptr) {
        const StreamKey key{source, tag};
        const std::uint64_t expected = box.next_recv_seq[key];
        if (it->seq < expected) {
          discard_duplicate(box, it, self);
          continue;
        }
        if (it->seq != expected) {
          ++it;
          continue;
        }
        consume(box, key, expected);
      }
      Message message = std::move(*it);
      box.messages.erase(it);
      return message;
    }
    return std::nullopt;
  }

  /// Advances the stream past `seq` and prunes its retention entries —
  /// exactly-once consumption is sealed here, under the mailbox lock.
  static void consume(Mailbox& box, const StreamKey& key, std::uint64_t seq) {
    box.next_recv_seq[key] = seq + 1;
    const auto it = box.retention.find(key);
    if (it == box.retention.end()) return;
    auto& retained = it->second;
    while (!retained.empty() && retained.front().seq <= seq)
      retained.pop_front();
    if (retained.empty()) box.retention.erase(it);
  }

  /// Receiver-driven recovery: redelivers the earliest unconsumed retained
  /// message of the (source, tag) stream the receive waits on.  The
  /// retransmission passes through the injector again with the bumped
  /// attempt number, so it can itself be dropped or delayed — which is what
  /// the caller's exponential backoff is for.  Temporarily releases the
  /// mailbox lock (delivery re-acquires it).
  void retransmit(Mailbox& box, std::unique_lock<std::mutex>& lock, int self,
                  int source, std::int64_t tag, int attempt) {
    if (faults_ == nullptr) return;
    const StreamKey key{source, tag};
    const auto retained = box.retention.find(key);
    // Nothing sent yet, or the next message is already in flight.
    if (retained == box.retention.end() || retained->second.empty() ||
        retained->second.front().seq != box.next_recv_seq[key])
      return;
    Message message = retained->second.front();
    lock.unlock();
    faults_->note_retry();
    record_fault(self, "retry", source, self, tag);
    const fault::Fate fate =
        faults_->fate_of(source, self, tag, message.seq, attempt);
    apply_fate(self, std::move(message), fate, /*record=*/false);
    lock.lock();
  }

  /// Parks a message at the delay thread until `seconds` from now.  The
  /// thread is created lazily on the first delayed message and joined in
  /// the destructor (after the rank threads, so nothing races it).
  void schedule_delayed(int dest, Message message, double seconds) {
    {
      const std::lock_guard<std::mutex> lock(delay_mutex_);
      if (!delay_thread_.joinable())
        delay_thread_ = std::thread([this] { delay_loop(); });
      delayed_.push_back({Clock::now() + to_duration(seconds), delay_order_++,
                          dest, std::move(message)});
      std::push_heap(delayed_.begin(), delayed_.end(), delayed_after);
    }
    delay_cv_.notify_one();
  }

  void delay_loop() {
    std::unique_lock<std::mutex> lock(delay_mutex_);
    while (true) {
      if (delay_shutdown_) return;  // undelivered stragglers die with us
      if (delayed_.empty()) {
        delay_cv_.wait(lock);
        continue;
      }
      const Clock::time_point due = delayed_.front().due;
      if (Clock::now() < due) {
        delay_cv_.wait_until(lock, due);
        continue;  // re-check: an earlier message or shutdown may have won
      }
      std::pop_heap(delayed_.begin(), delayed_.end(), delayed_after);
      DelayedMessage item = std::move(delayed_.back());
      delayed_.pop_back();
      lock.unlock();
      deliver(item.dest, std::move(item.message));
      lock.lock();
    }
  }

  void count_sent(int source, std::int64_t messages, std::int64_t doubles) {
    const std::lock_guard<std::mutex> lock(
        traffic_mutexes_[static_cast<std::size_t>(source)]);
    auto& t = traffic_[static_cast<std::size_t>(source)];
    t.messages_sent += messages;
    t.doubles_sent += doubles;
  }

  /// Records one send event on the source rank's track; returns the flow
  /// id to stamp on the message (reuses `flow` when nonzero, for the
  /// shared-flow multisend fan-out).
  std::uint64_t record_send(int source, int dest, std::int64_t tag,
                            std::int64_t doubles, std::uint64_t flow) {
    if (recorder_ == nullptr) return 0;
    if (flow == 0) flow = recorder_->next_flow() | flow_namespace_;
    obs::Event event;
    event.kind = obs::EventKind::kSend;
    event.start_seconds = event.end_seconds = recorder_->now();
    event.source = source;
    event.dest = dest;
    event.tag = tag;
    event.bytes = doubles * static_cast<std::int64_t>(sizeof(double));
    event.flow = flow;
    sinks_[static_cast<std::size_t>(source)]->record(std::move(event));
    return flow;
  }

  /// Records a fault/recovery event on `track`'s trace track.  The caller
  /// must be the thread owning that track (rank `track`'s body thread) —
  /// the retransmit and delay paths therefore never record.
  void record_fault(int track, const char* what, int source, int dest,
                    std::int64_t tag) {
    if (recorder_ == nullptr) return;
    obs::Event event;
    event.kind = obs::EventKind::kFault;
    event.name = what;
    event.start_seconds = event.end_seconds = recorder_->now();
    event.source = source;
    event.dest = dest;
    event.tag = tag;
    sinks_[static_cast<std::size_t>(track)]->record(std::move(event));
  }

  /// Books the receive-side counters and extracts the payload.
  Payload receive_payload(int self, Message&& message) {
    if (recorder_ != nullptr) {
      obs::Event event;
      event.kind = obs::EventKind::kRecv;
      event.start_seconds = event.end_seconds = recorder_->now();
      event.source = message.source;
      event.dest = self;
      event.tag = message.tag;
      event.bytes = static_cast<std::int64_t>(message.data->size()) *
                    static_cast<std::int64_t>(sizeof(double));
      event.flow = message.flow;
      sinks_[static_cast<std::size_t>(self)]->record(std::move(event));
    }
    Payload data = extract(std::move(message));
    const std::lock_guard<std::mutex> lock(
        traffic_mutexes_[static_cast<std::size_t>(self)]);
    auto& t = traffic_[static_cast<std::size_t>(self)];
    ++t.messages_received;
    t.doubles_received += static_cast<std::int64_t>(data.size());
    return data;
  }

  int size_;
  std::vector<Mailbox> mailboxes_;
  std::vector<TrafficStats> traffic_;
  std::vector<std::mutex> traffic_mutexes_;
  obs::Recorder* recorder_;
  std::vector<obs::TrackSink*> sinks_;
  fault::FaultInjector* faults_;
  Transport* transport_;
  std::vector<char> local_;  ///< per-rank locality (empty when no transport)
  std::uint64_t flow_namespace_ = 0;  ///< high bits stamped onto flow ids
  RecvOptions default_recv_options_;
  std::atomic<bool> aborted_{false};

  std::mutex delay_mutex_;
  std::condition_variable delay_cv_;
  std::vector<DelayedMessage> delayed_;  // min-heap by (due, order)
  std::uint64_t delay_order_ = 0;
  bool delay_shutdown_ = false;
  std::thread delay_thread_;
};

int RankContext::size() const { return world_.size(); }

void RankContext::send(int dest, std::int64_t tag, const Payload& data) {
  world_.send(rank_, dest, tag, data);
}

void RankContext::send(int dest, std::int64_t tag, Payload&& data) {
  world_.send(rank_, dest, tag, std::move(data));
}

void RankContext::multisend(const std::vector<int>& dests, std::int64_t tag,
                            const Payload& data) {
  world_.multisend(rank_, dests, tag, data);
}

Payload RankContext::recv(int source, std::int64_t tag) {
  return world_.recv(rank_, source, tag, /*options=*/nullptr);
}

Payload RankContext::recv(int source, std::int64_t tag,
                          const RecvOptions& options) {
  return world_.recv(rank_, source, tag, &options);
}

TrafficStats RankContext::traffic() const { return world_.traffic(rank_); }

std::int64_t RunReport::total_messages() const {
  std::int64_t total = 0;
  for (const auto& stats : per_rank) total += stats.messages_sent;
  return total;
}

std::int64_t RunReport::total_doubles() const {
  std::int64_t total = 0;
  for (const auto& stats : per_rank) total += stats.doubles_sent;
  return total;
}

std::int64_t RunReport::total_messages_received() const {
  std::int64_t total = 0;
  for (const auto& stats : per_rank) total += stats.messages_received;
  return total;
}

std::int64_t RunReport::total_doubles_received() const {
  std::int64_t total = 0;
  for (const auto& stats : per_rank) total += stats.doubles_received;
  return total;
}

namespace {

void append_i64(std::string& out, std::int64_t value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

std::int64_t take_i64(const std::string& in, std::size_t& offset) {
  std::int64_t value = 0;
  if (offset + sizeof value > in.size())
    throw std::runtime_error("vmpi: truncated stats blob");
  std::memcpy(&value, in.data() + offset, sizeof value);
  offset += sizeof value;
  return value;
}

/// Serializes this process's contribution to the global RunReport: each
/// local rank's traffic counters plus the process-local fault counters.
std::string encode_stats(const std::vector<int>& ranks, World& world,
                         const fault::FaultStats& faults) {
  std::string blob;
  append_i64(blob, static_cast<std::int64_t>(ranks.size()));
  for (const int r : ranks) {
    const TrafficStats stats = world.traffic(r);
    append_i64(blob, r);
    append_i64(blob, stats.messages_sent);
    append_i64(blob, stats.doubles_sent);
    append_i64(blob, stats.messages_received);
    append_i64(blob, stats.doubles_received);
  }
  append_i64(blob, faults.drops);
  append_i64(blob, faults.duplicates);
  append_i64(blob, faults.delays);
  append_i64(blob, faults.retries);
  append_i64(blob, faults.timeout_waits);
  append_i64(blob, faults.dedup_discards);
  return blob;
}

void merge_stats(const std::string& blob, RunReport& report) {
  std::size_t offset = 0;
  const std::int64_t count = take_i64(blob, offset);
  for (std::int64_t k = 0; k < count; ++k) {
    const auto rank = static_cast<std::size_t>(take_i64(blob, offset));
    if (rank >= report.per_rank.size())
      throw std::runtime_error("vmpi: stats blob names an unknown rank");
    TrafficStats& stats = report.per_rank[rank];
    stats.messages_sent = take_i64(blob, offset);
    stats.doubles_sent = take_i64(blob, offset);
    stats.messages_received = take_i64(blob, offset);
    stats.doubles_received = take_i64(blob, offset);
  }
  report.faults.drops += take_i64(blob, offset);
  report.faults.duplicates += take_i64(blob, offset);
  report.faults.delays += take_i64(blob, offset);
  report.faults.retries += take_i64(blob, offset);
  report.faults.timeout_waits += take_i64(blob, offset);
  report.faults.dedup_discards += take_i64(blob, offset);
}

}  // namespace

RunReport run_ranks(int ranks, const std::function<void(RankContext&)>& body,
                    const RunOptions& options) {
  if (ranks < 1) throw std::invalid_argument("need at least one rank");
  Transport* transport =
      options.transport != nullptr ? options.transport : ambient_transport();
  World world(ranks, options.recorder, options.injector, transport);

  std::vector<int> local_ranks;
  if (transport != nullptr) {
    local_ranks = transport->local_ranks();
  } else {
    local_ranks.resize(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) local_ranks[static_cast<std::size_t>(r)] = r;
  }

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(local_ranks.size());
  threads.reserve(local_ranks.size());
  for (std::size_t k = 0; k < local_ranks.size(); ++k) {
    const int r = local_ranks[k];
    threads.emplace_back([&world, &body, &errors, k, r] {
      try {
        RankContext ctx(world, r);
        body(ctx);
      } catch (const RunAborted&) {
        // Only ever the echo of another local rank's error, rethrown below.
      } catch (...) {
        errors[k] = std::current_exception();
        world.abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  RunReport report;
  report.per_rank.resize(static_cast<std::size_t>(ranks));
  for (const int r : local_ranks)
    report.per_rank[static_cast<std::size_t>(r)] = world.traffic(r);
  const fault::FaultStats local_faults =
      options.injector != nullptr ? options.injector->stats()
                                  : fault::FaultStats{};
  report.faults = local_faults;

  // Merge the other processes' counters so the report is global everywhere.
  // The gather doubles as the end-of-run rendezvous: it runs even when a
  // local body threw, so a symmetric failure (e.g. every rank timing out)
  // cannot leave the surviving processes stuck in the exchange.
  if (transport != nullptr && transport->process_count() > 1) {
    const std::string local_blob =
        encode_stats(local_ranks, world, local_faults);
    const std::vector<std::string> blobs = transport->gather_blobs(local_blob);
    for (std::size_t p = 0; p < blobs.size(); ++p) {
      if (p == static_cast<std::size_t>(transport->process_index())) continue;
      merge_stats(blobs[p], report);
    }
  }

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return report;
}

}  // namespace anyblock::vmpi
