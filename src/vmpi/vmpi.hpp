// vmpi: an MPI-style message-passing layer with threads as ranks.
//
// The paper's runs use one MPI process per node with point-to-point tile
// messages (Section II-C).  vmpi reproduces that model inside one process:
// run_ranks() spawns R threads, each receiving a RankContext with exactly
// the primitives the distributed factorizations call — tagged send, a
// shared-buffer multisend, and a receive matched on (source, tag) — plus
// per-rank traffic counters on both the send and the receive side.  Sends
// are asynchronous (they enqueue and return, like MPI_Isend with an eager
// protocol) so the owner-computes factorizations cannot deadlock on send
// ordering; recv blocks until a matching message arrives.  multisend() fans
// one payload out to many destinations through a single shared buffer (no
// per-destination copy at send time) — the primitive the comm::Multicast
// algorithms build on.
//
// This is how the library validates distributions end to end: the *actual*
// message counts of a factorization run are compared against the paper's
// Eq. 1 / Eq. 2 predictions, and the numerical result against a sequential
// reference.
// Fault tolerance: run_ranks() optionally takes a fault::FaultInjector that
// perturbs every delivery (drop / duplicate / delay, per the seeded plan).
// Under an injector the transport switches to sequence-numbered at-least-once
// delivery: every (source, dest, tag) stream is numbered, receivers consume
// strictly in order (duplicates are discarded, reordered messages wait for
// the gap), and a receive that times out retransmits the missing message
// from the sender-side retention buffer under bounded exponential backoff.
// Application code is unchanged — plain recv() transparently becomes
// fault-aware — and traffic counters keep counting application-level
// messages only, so the Eq. 1/2 cross-checks hold verbatim under faults.
// Every receive runs one loop: the timed recv() bounds each wait and
// retransmits on timeout, the plain one waits without a deadline unless an
// injector lends it the plan's timeouts.  Without an injector the only
// fault-mode cost is one null-pointer check per operation.
//
// Transport seam: World is backend-agnostic.  By default every rank is a
// thread of this process (the in-process backend — the original mailbox
// fast path, bit for bit).  With a vmpi::Transport (see transport.hpp) the
// world may span OS processes: run_ranks() spawns threads only for the
// transport's local ranks, sends to remote ranks ship a framed envelope
// through the transport, and inbound envelopes re-enter the very same
// delivery path (including fault injection and dedup) at the destination
// process.  The RunReport is global either way: per-rank counters of
// remote processes are merged through the transport after the bodies join.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "vmpi/transport.hpp"

namespace anyblock::obs {
class Recorder;
}

namespace anyblock::vmpi {

struct TrafficStats {
  std::int64_t messages_sent = 0;
  std::int64_t doubles_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t doubles_received = 0;
};

/// Controls the timeout-aware receive.  The first wait lasts
/// `timeout_seconds`; every retry doubles it (bounded exponential backoff)
/// until `max_retries` retransmissions have been spent, after which
/// RecvTimeoutError escapes.
struct RecvOptions {
  double timeout_seconds = 0.2;
  int max_retries = 12;
};

/// A timeout-aware receive exhausted its retries: names the (source, tag)
/// it was waiting for and how many transmissions were attempted.
class RecvTimeoutError : public std::runtime_error {
 public:
  RecvTimeoutError(int source, std::int64_t tag, int attempts)
      : std::runtime_error("vmpi recv timed out waiting for source " +
                           std::to_string(source) + " tag " +
                           std::to_string(tag) + " after " +
                           std::to_string(attempts) + " attempt(s)"),
        source_(source),
        tag_(tag),
        attempts_(attempts) {}

  [[nodiscard]] int source() const { return source_; }
  [[nodiscard]] std::int64_t tag() const { return tag_; }
  [[nodiscard]] int attempts() const { return attempts_; }

 private:
  int source_;
  std::int64_t tag_;
  int attempts_;
};

/// Another rank body of this run threw, so no message this rank waits for
/// can be trusted to come: a recv that finds the run aborted throws this
/// instead of blocking forever.  run_ranks() rethrows the original error,
/// never this one.
class RunAborted : public std::runtime_error {
 public:
  RunAborted() : std::runtime_error("vmpi: run aborted by another rank") {}
};

class World;

/// Handed to each rank's body; valid only during run_ranks().
class RankContext {
 public:
  RankContext(World& world, int rank) : world_(world), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Asynchronous tagged send (copies the payload; never blocks).
  void send(int dest, std::int64_t tag, const Payload& data);
  void send(int dest, std::int64_t tag, Payload&& data);

  /// Sends the same payload to every destination, sharing one underlying
  /// buffer across all messages (the payload is copied once, not once per
  /// destination).  Counts one message per destination, like send().
  void multisend(const std::vector<int>& dests, std::int64_t tag,
                 const Payload& data);

  /// Blocks until a message with this (source, tag) arrives.  Messages from
  /// one source with equal tags are delivered in send order.  Under a fault
  /// injector this transparently becomes the timeout-aware variant with the
  /// plan's recovery parameters.
  Payload recv(int source, std::int64_t tag);

  /// Timeout-aware receive: waits up to options.timeout_seconds, then
  /// retransmits the missing message (fault runs) and doubles the wait;
  /// throws RecvTimeoutError naming (source, tag) once options.max_retries
  /// retransmissions are exhausted.
  Payload recv(int source, std::int64_t tag, const RecvOptions& options);

  [[nodiscard]] TrafficStats traffic() const;

 private:
  World& world_;
  int rank_;
};

/// Per-rank aggregate traffic after a run.
struct RunReport {
  std::vector<TrafficStats> per_rank;
  /// Injected-fault and recovery counters (all zero without an injector).
  fault::FaultStats faults;
  [[nodiscard]] std::int64_t total_messages() const;
  [[nodiscard]] std::int64_t total_doubles() const;
  [[nodiscard]] std::int64_t total_messages_received() const;
  [[nodiscard]] std::int64_t total_doubles_received() const;
};

/// Options for run_ranks().  `transport` selects the backend: null falls
/// back to the ambient transport (see transport.hpp), and a null ambient
/// means the in-process backend (all ranks are threads of this process).
/// With a multi-process transport, `injector` must be constructed from the
/// same FaultPlan in every process — fates are pure functions of the seed,
/// so the processes jointly replay one deterministic fault schedule.
struct RunOptions {
  obs::Recorder* recorder = nullptr;
  fault::FaultInjector* injector = nullptr;
  Transport* transport = nullptr;
};

/// Spawns one thread per *local* rank running `body` and joins them; under
/// the in-process backend every rank is local.  When a local rank body
/// throws, the run is aborted: every local rank blocked in (or later
/// entering) recv gets RunAborted, so the threads join instead of waiting
/// for messages that will never come.  The first original exception
/// (lowest local rank) is rethrown after all threads joined.  Ranks in
/// other processes of a multi-process transport are not aborted.
///
/// With a non-null `recorder`, every send/multisend/recv is recorded as an
/// obs event on a per-rank track ("rank N"), carrying source/dest/tag/byte
/// metadata plus a flow id linking each send to its matching recv — the
/// event counts equal the TrafficStats counters exactly.  Flow ids are
/// namespaced by process index, so traces from the processes of one mesh
/// merge with their send→recv arrows intact.  Injected faults and recovery
/// actions appear as separate kFault events and never add kSend/kRecv
/// events or flows.
///
/// With a non-null `injector`, deliveries run through the seeded fault plan
/// and the reliability protocol described above; the report's `faults`
/// field carries the injector's counters after the run (summed across
/// processes under a multi-process transport, like the per-rank traffic).
RunReport run_ranks(int ranks, const std::function<void(RankContext&)>& body,
                    const RunOptions& options = {});

}  // namespace anyblock::vmpi
