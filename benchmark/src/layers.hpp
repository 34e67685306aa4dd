// Direct probes of single layers (traced pass only) and the in-process
// socket mesh the run workloads and the net probes share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/socket_transport.hpp"
#include "obs/trace.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::bench {

using Rows = std::vector<std::pair<std::string, double>>;

/// Both endpoints of a two-process socket mesh, hosted in this process over
/// loopback TCP: endpoint 0 holds the lower half of the ranks, endpoint 1
/// the upper half — the placement `anyblock launch --procs 2` gives.
class SocketMesh {
 public:
  /// Brings the mesh up (rendezvous + handshake) in `rendezvous_dir`.
  SocketMesh(int world_size, const std::string& rendezvous_dir);
  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  /// Runs `body(endpoint)` for both endpoints concurrently, each on its own
  /// thread with that endpoint as the ambient vmpi transport, and rethrows
  /// the first exception after both returned.
  void run(const std::function<void(int endpoint)>& body);

 private:
  std::unique_ptr<net::SocketTransport> endpoints_[2];
};

/// Runs `body` on `world_size` vmpi ranks over the in-process backend, or
/// over `mesh` when non-null.
void run_ranks_on(SocketMesh* mesh, int world_size,
                  const std::function<void(vmpi::RankContext&)>& body);

/// GFlop/s of every tile kernel at tile size `nb`
/// ("linalg.<kernel>.gflops" rows).
Rows kernel_gflops(std::int64_t nb, std::uint64_t seed);

/// Tile-sized message stream and 8-byte ping-pong between rank 0 and
/// `peer` of a `world_size`-rank world (in-process, or over `mesh`).
struct LinkProbe {
  double tile_msgs_per_s = 0.0;
  double pingpong_us = 0.0;  ///< one round trip
};
LinkProbe probe_link(SocketMesh* mesh, int world_size, int peer,
                     std::int64_t tile_doubles);

/// Microseconds per eager-p2p tile multicast from rank 0 to ranks 1..3.
double multicast_us(SocketMesh* mesh, std::int64_t tile_doubles);

/// Microseconds per independent empty task on a 4-worker TaskEngine.
double task_overhead_us();

/// PatternStore costs in a fresh directory: median seconds of a durable
/// put() and median microseconds of a get() hit.
struct StoreProbe {
  double put_s = 0.0;
  double get_us_p50 = 0.0;
};
StoreProbe probe_store(const std::string& dir, std::uint64_t seed);

/// Microseconds from each vmpi send to each matching recv, over every
/// flow the trace holds, sorted ascending.
std::vector<double> send_to_recv_us(const obs::Trace& trace);

/// Nearest-rank percentile (0 < q <= 1) of ascending `sorted`; 0 if empty.
double percentile(const std::vector<double>& sorted, double q);

}  // namespace anyblock::bench
