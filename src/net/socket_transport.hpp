// vmpi::Transport over a full mesh of TCP connections — the real-sockets
// backend (DESIGN.md §10).
//
// Mesh bring-up: every process binds an ephemeral port and publishes it via
// net::rendezvous, then dials every lower-indexed process and accepts one
// connection from every higher-indexed one; the first frame on each
// connection is a kHello naming the dialer.  After the handshake all
// sockets go non-blocking and a single epoll loop thread owns them.
//
// Data path: rank threads encode kData frames and enqueue them on the
// destination process's connection (blocking only on that connection's
// byte budget — backpressure), then poke the loop thread, which writes.
// Inbound frames are decoded on the loop thread and handed to the attached
// sink; per (source, dest, tag) order is preserved because each ordered
// pair of processes shares exactly one FIFO stream.
//
// Stats gather: gather_blobs(), the one collective, funnels through
// process 0 (kBlob up, kBlobAll down).
//
// A vanished peer fails its connection, records a reason, and wakes a
// blocked gather.  A gather that needs the lost peer throws PeerLostError
// instead of hanging: the gather root needs every peer, a non-root gather
// only process 0 (so peers that finish and exit first cannot abort it).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "vmpi/transport.hpp"

namespace anyblock::net {

struct SocketTransportConfig {
  int world_size = 0;     ///< total ranks across the mesh
  int process_index = 0;  ///< this process, in [0, process_count)
  int process_count = 1;
  std::string rendezvous_dir;  ///< required when process_count > 1
  std::string host = "127.0.0.1";
  double connect_timeout_seconds = 30.0;
  std::size_t max_queued_bytes = std::size_t{8} << 20;  ///< per connection
};

/// The contiguous block of ranks process `process` hosts: base = W/P ranks
/// each, the first W%P processes taking one extra.  Shared with the
/// launcher so every process derives the same placement independently.
std::vector<int> ranks_of_process(int world_size, int process_count,
                                  int process);

/// A gather could not complete, or a send could not be queued, because a
/// peer process it needs disconnected or failed.
class PeerLostError : public std::runtime_error {
 public:
  PeerLostError(int process, const std::string& what);
  /// The lost peer's process index.
  [[nodiscard]] int process() const { return process_; }

 private:
  int process_;
};

class SocketTransport final : public vmpi::Transport {
 public:
  /// Performs the full rendezvous + mesh handshake; blocks until every
  /// peer is connected or the timeout expires (std::runtime_error).
  explicit SocketTransport(const SocketTransportConfig& config);
  ~SocketTransport() override;

  [[nodiscard]] int world_size() const override { return config_.world_size; }
  [[nodiscard]] int process_index() const override {
    return config_.process_index;
  }
  [[nodiscard]] int process_count() const override {
    return config_.process_count;
  }
  [[nodiscard]] const std::vector<int>& local_ranks() const override {
    return local_ranks_;
  }
  [[nodiscard]] bool is_local(int rank) const override {
    return local_[static_cast<std::size_t>(rank)] != 0;
  }

  void send(vmpi::WireMessage message) override;
  void attach(Sink sink) override;
  void detach() override;
  std::vector<std::string> gather_blobs(const std::string& local) override;

 private:
  struct Peer {
    std::unique_ptr<Connection> connection;  ///< null for self
    bool write_armed = false;                ///< loop thread only
  };

  [[nodiscard]] int rank_to_process(int rank) const;
  void adopt_connection(int process, int fd);
  void post(int process, std::string frame);

  // Loop-thread handlers.
  void on_event(int process, std::uint32_t events);
  void on_wake();
  void dispatch(Frame&& frame);
  void deliver(vmpi::WireMessage&& message);
  void peer_lost(int process, const std::string& reason);
  [[nodiscard]] bool lost_locked(int process) const;
  [[nodiscard]] const std::string& lost_reason_locked(int process) const;

  SocketTransportConfig config_;
  std::vector<int> local_ranks_;
  std::vector<char> local_;

  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<Peer> peers_;

  std::mutex sink_mutex_;
  Sink sink_;
  std::deque<vmpi::WireMessage> pending_;  ///< arrivals while detached

  std::mutex mutex_;  ///< gather state below
  std::condition_variable cv_;
  std::vector<std::deque<std::string>> blob_queues_;   ///< process 0 only
  std::deque<std::vector<std::string>> blob_results_;  ///< processes != 0
  std::vector<std::string> lost_;  ///< per process: why it vanished, or ""
};

}  // namespace anyblock::net
