#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "comm/multicast.hpp"
#include "common.hpp"
#include "core/recommend.hpp"
#include "linalg/kernels.hpp"
#include "runtime/task_engine.hpp"
#include "store/pattern_store.hpp"
#include "util/rng.hpp"

namespace anyblock::bench {

SocketMesh::SocketMesh(int world_size, const std::string& rendezvous_dir) {
  net::SocketTransportConfig config;
  config.world_size = world_size;
  config.process_count = 2;
  config.rendezvous_dir = rendezvous_dir;
  std::exception_ptr errors[2];
  const auto connect = [&](int endpoint) {
    try {
      net::SocketTransportConfig mine = config;
      mine.process_index = endpoint;
      endpoints_[endpoint] = std::make_unique<net::SocketTransport>(mine);
    } catch (...) {
      errors[endpoint] = std::current_exception();
    }
  };
  std::thread dialer(connect, 1);
  connect(0);
  dialer.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

void SocketMesh::run(const std::function<void(int endpoint)>& body) {
  std::exception_ptr errors[2];
  const auto drive = [&](int endpoint) {
    try {
      const vmpi::ScopedTransport ambient(endpoints_[endpoint].get());
      body(endpoint);
    } catch (...) {
      errors[endpoint] = std::current_exception();
    }
  };
  std::thread side(drive, 1);
  drive(0);
  side.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

void run_ranks_on(SocketMesh* mesh, int world_size,
                  const std::function<void(vmpi::RankContext&)>& body) {
  if (mesh != nullptr) {
    mesh->run([&](int) { vmpi::run_ranks(world_size, body); });
    return;
  }
  const vmpi::ScopedTransport inproc(nullptr);
  vmpi::run_ranks(world_size, body);
}

Rows kernel_gflops(std::int64_t nb, std::uint64_t seed) {
  Rng rng(seed);
  const auto elems = static_cast<std::size_t>(nb * nb);
  const auto index = [nb](std::int64_t i, std::int64_t j) {
    return static_cast<std::size_t>(i * nb + j);
  };
  const auto random_tile = [&] {
    std::vector<double> tile(elems);
    for (double& x : tile) x = 2.0 * rng.uniform() - 1.0;
    return tile;
  };
  const std::vector<double> a = random_tile();
  const std::vector<double> b = random_tile();
  std::vector<double> dominant = random_tile();
  std::vector<double> spd(elems);
  for (std::int64_t i = 0; i < nb; ++i) {
    for (std::int64_t j = 0; j <= i; ++j)
      spd[index(i, j)] = spd[index(j, i)] = 2.0 * rng.uniform() - 1.0;
    spd[index(i, i)] += static_cast<double>(nb);
    dominant[index(i, i)] += static_cast<double>(nb);
  }
  std::vector<double> lu = dominant;
  std::vector<double> chol = spd;
  if (!linalg::getrf_nopiv(lu, nb) || !linalg::potrf_lower(chol, nb))
    throw std::runtime_error("kernel probe inputs failed to factor");

  // Each call works on a fresh copy of `pristine` from a batch of up to
  // 8 MB:
  // in-place kernels would otherwise run on their own output, and in a
  // factorization tiles arrive from memory, not hot in cache.  Copies are
  // made outside the timed loop.
  const std::size_t batch = std::clamp<std::size_t>((1U << 20) / elems, 4, 256);
  std::vector<double> work(batch * elems);
  using Kernel = std::function<void(std::span<double>)>;
  const auto gflops = [&](const std::vector<double>& pristine, double flops,
                          const Kernel& kernel) {
    double seconds = 0.0;
    std::int64_t calls = 0;
    while (seconds < 0.03) {
      for (std::size_t k = 0; k < batch; ++k)
        std::copy(pristine.begin(), pristine.end(),
                  work.begin() + static_cast<std::ptrdiff_t>(k * elems));
      const double start = now_seconds();
      for (std::size_t k = 0; k < batch; ++k)
        kernel(std::span<double>(work.data() + k * elems, elems));
      seconds += now_seconds() - start;
      calls += static_cast<std::int64_t>(batch);
    }
    return static_cast<double>(calls) * flops / seconds / 1e9;
  };

  using linalg::gemm_flops;
  using linalg::trsm_flops;
  return {
      {"linalg.gemm_update.gflops",
       gflops(b, gemm_flops(nb),
              [&](std::span<double> c) { linalg::gemm_update(a, b, c, nb); })},
      {"linalg.gemm_update_trans_b.gflops",
       gflops(b, gemm_flops(nb),
              [&](std::span<double> c) {
                linalg::gemm_update_trans_b(a, b, c, nb);
              })},
      {"linalg.syrk_update_lower.gflops",
       gflops(spd, linalg::syrk_flops(nb),
              [&](std::span<double> c) {
                linalg::syrk_update_lower(a, c, nb);
              })},
      {"linalg.trsm_right_upper.gflops",
       gflops(b, trsm_flops(nb),
              [&](std::span<double> x) {
                linalg::trsm_right_upper(lu, x, nb);
              })},
      {"linalg.trsm_left_lower_unit.gflops",
       gflops(b, trsm_flops(nb),
              [&](std::span<double> x) {
                linalg::trsm_left_lower_unit(lu, x, nb);
              })},
      {"linalg.trsm_right_lower_trans.gflops",
       gflops(b, trsm_flops(nb),
              [&](std::span<double> x) {
                linalg::trsm_right_lower_trans(chol, x, nb);
              })},
      {"linalg.getrf_nopiv.gflops",
       gflops(dominant, linalg::getrf_flops(nb),
              [&](std::span<double> x) { linalg::getrf_nopiv(x, nb); })},
      {"linalg.potrf_lower.gflops",
       gflops(spd, linalg::potrf_flops(nb),
              [&](std::span<double> x) { linalg::potrf_lower(x, nb); })},
  };
}

LinkProbe probe_link(SocketMesh* mesh, int world_size, int peer,
                     std::int64_t tile_doubles) {
  // ~64 MB of tiles per stream, bounded in message count both ways.
  const int messages = static_cast<int>(
      std::clamp<std::int64_t>(8'000'000 / tile_doubles, 200, 20'000));
  constexpr int kRoundTrips = 2000;
  LinkProbe probe;
  run_ranks_on(mesh, world_size, [&](vmpi::RankContext& ctx) {
    const vmpi::Payload small(1, 0.0);
    if (ctx.rank() == 0) {
      const vmpi::Payload tile(static_cast<std::size_t>(tile_doubles), 1.5);
      double start = now_seconds();
      for (int k = 0; k < messages; ++k) ctx.send(peer, 1, tile);
      ctx.recv(peer, 2);  // the peer holds every tile
      probe.tile_msgs_per_s = messages / (now_seconds() - start);
      start = now_seconds();
      for (int k = 0; k < kRoundTrips; ++k) {
        ctx.send(peer, 3, small);
        ctx.recv(peer, 4);
      }
      probe.pingpong_us = (now_seconds() - start) / kRoundTrips * 1e6;
    } else if (ctx.rank() == peer) {
      for (int k = 0; k < messages; ++k) ctx.recv(0, 1);
      ctx.send(0, 2, small);
      for (int k = 0; k < kRoundTrips; ++k) {
        ctx.recv(0, 3);
        ctx.send(0, 4, small);
      }
    }
  });
  return probe;
}

double multicast_us(SocketMesh* mesh, std::int64_t tile_doubles) {
  const int rounds = static_cast<int>(
      std::clamp<std::int64_t>(4'000'000 / tile_doubles, 50, 2000));
  const std::vector<int> dests = {1, 2, 3};
  const comm::CollectiveConfig config;  // eager p2p, as the workloads run
  double seconds = 0.0;
  run_ranks_on(mesh, 4, [&](vmpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      const vmpi::Payload tile(static_cast<std::size_t>(tile_doubles), 2.5);
      const double start = now_seconds();
      for (int k = 0; k < rounds; ++k)
        comm::multicast_send(ctx, config, k, tile, dests);
      for (const int dest : dests) ctx.recv(dest, rounds);
      seconds = now_seconds() - start;
    } else {
      for (int k = 0; k < rounds; ++k)
        comm::multicast_recv(ctx, config, k, 0, dests);
      ctx.send(0, rounds, vmpi::Payload(1, 0.0));
    }
  });
  return seconds / rounds * 1e6;
}

double task_overhead_us() {
  constexpr int kTasks = 20'000;
  runtime::TaskEngine engine(4);
  std::atomic<int> ran{0};
  const double start = now_seconds();
  for (int k = 0; k < kTasks; ++k)
    engine.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  {});
  engine.wait_all();
  const double seconds = now_seconds() - start;
  if (ran.load() != kTasks)
    throw std::runtime_error("task engine lost tasks");
  return seconds / kTasks * 1e6;
}

StoreProbe probe_store(const std::string& dir, std::uint64_t seed) {
  store::PatternStore patterns(dir + "/store");
  std::vector<store::StoreKey> keys;
  std::vector<double> puts;
  for (std::int64_t P = 40; P < 60; ++P) {
    const core::Recommendation rec = core::recommend_lu(P);
    store::StoreKey key;
    key.P = P;
    key.metric = "lu";
    store::StoreEntry entry{rec.pattern, rec.scheme, rec.cost, rec.rationale};
    const double start = now_seconds();
    if (!patterns.put(key, std::move(entry)))
      throw std::runtime_error("store probe could not persist " + dir);
    puts.push_back(now_seconds() - start);
    keys.push_back(key);
  }
  Rng rng(seed);
  std::vector<double> gets;
  for (int k = 0; k < 5000; ++k) {
    const store::StoreKey& key = keys[rng.below(keys.size())];
    const double start = now_seconds();
    const bool hit = patterns.get(key).has_value();
    gets.push_back((now_seconds() - start) * 1e6);
    if (!hit) throw std::runtime_error("store probe lost an entry");
  }
  std::sort(puts.begin(), puts.end());
  std::sort(gets.begin(), gets.end());
  return {percentile(puts, 0.5), percentile(gets, 0.5)};
}

std::vector<double> send_to_recv_us(const obs::Trace& trace) {
  std::unordered_map<std::uint64_t, double> sent_at;
  for (const obs::Track& track : trace.tracks)
    for (const obs::Event& event : track.events)
      if (event.kind == obs::EventKind::kSend && event.flow != 0)
        sent_at[event.flow] = event.start_seconds;
  std::vector<double> latencies;
  for (const obs::Track& track : trace.tracks)
    for (const obs::Event& event : track.events) {
      if (event.kind != obs::EventKind::kRecv || event.flow == 0) continue;
      const auto send = sent_at.find(event.flow);
      if (send != sent_at.end())
        latencies.push_back((event.start_seconds - send->second) * 1e6);
    }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace anyblock::bench
