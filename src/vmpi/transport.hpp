// The transport seam under vmpi: where message envelopes cross a process
// boundary.
//
// vmpi::World implements everything that gives the message layer its
// semantics — mailbox matching, per-(source, tag) stream ordering, the
// at-least-once/dedup reliability protocol, fault injection, traffic
// counters, obs events.  All of that sits *above* this seam.  A Transport
// covers exactly what run_ranks() needs of a backend: placement (which
// ranks live in this OS process), send (how an envelope reaches a rank that
// does not), the inbound sink, and one gather that merges the per-process
// stats into a global RunReport.
//
// Two backends exist:
//   * in-process (the default, `transport == nullptr`): every rank is a
//     thread of this process and the seam is never crossed — World runs the
//     exact mailbox fast path it always has, bit for bit.
//   * net::SocketTransport (src/net): ranks are spread over OS processes
//     connected by a full mesh of length-prefixed TCP streams driven by an
//     epoll event loop; see DESIGN.md §10.
//
// The conformance suite (tests/net/transport_conformance_test.cpp) pins the
// semantics both backends must share; registering a third backend there is
// a one-line change.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace anyblock::vmpi {

using Payload = std::vector<double>;

/// One message crossing the seam.  `flow` is the obs trace flow id, already
/// namespaced by the sending process so send→recv arrows link across
/// process boundaries.  `seq` is reserved on the wire: the reliability
/// protocol stamps stream sequence numbers at the *destination* process
/// (arrival order equals send order per (source, dest, tag) stream because
/// every stream rides one FIFO connection), so transports never carry
/// protocol state between runs.
struct WireMessage {
  int source = -1;
  int dest = -1;
  std::int64_t tag = 0;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  Payload data;
};

/// Backend interface.  send() may be called from any rank thread
/// concurrently and must preserve per (source, dest, tag) send order; the
/// sink runs on the transport's own thread; attach(), detach() and
/// gather_blobs() are called by run_ranks() on its calling thread.
class Transport {
 public:
  virtual ~Transport();

  /// Total ranks across every process of the mesh.
  [[nodiscard]] virtual int world_size() const = 0;
  /// This process's index in [0, process_count()).
  [[nodiscard]] virtual int process_index() const = 0;
  [[nodiscard]] virtual int process_count() const = 0;
  /// The ranks hosted by this process, ascending.
  [[nodiscard]] virtual const std::vector<int>& local_ranks() const = 0;
  [[nodiscard]] virtual bool is_local(int rank) const = 0;

  /// Ships an envelope to the process hosting `message.dest`.  Blocks only
  /// for backpressure (the destination connection's write queue is full).
  virtual void send(WireMessage message) = 0;

  /// Inbound delivery callback, invoked on the transport's event thread.
  /// While no sink is attached the transport queues arrivals and flushes
  /// them on attach, so back-to-back run_ranks() calls on one transport
  /// never lose the follow-up run's early messages.  detach() blocks until
  /// any in-flight sink invocation has returned.
  using Sink = std::function<void(WireMessage&&)>;
  virtual void attach(Sink sink) = 0;
  virtual void detach() = 0;

  /// Allgather of one opaque blob per process (index = process index),
  /// called once per run after the local rank bodies joined; used to merge
  /// per-rank traffic and fault counters into a global RunReport.
  virtual std::vector<std::string> gather_blobs(const std::string& local) = 0;
};

/// The ambient transport run_ranks() uses when its options carry none: set
/// by the CLI / bench bootstrap so every dist:: factorization and solve
/// runs unmodified over whichever backend the process was launched with.
/// Null (the default) means in-process thread ranks.  Thread-local, so a
/// test may drive several mesh endpoints from one process by scoping a
/// different transport on each endpoint's driver thread.
void set_ambient_transport(Transport* transport);
[[nodiscard]] Transport* ambient_transport();

/// RAII ambient-transport scope, restoring the previous value on exit.
class ScopedTransport {
 public:
  explicit ScopedTransport(Transport* transport);
  ~ScopedTransport();
  ScopedTransport(const ScopedTransport&) = delete;
  ScopedTransport& operator=(const ScopedTransport&) = delete;

 private:
  Transport* previous_;
};

}  // namespace anyblock::vmpi
