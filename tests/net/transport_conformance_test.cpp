// Transport conformance suite: the semantics every vmpi backend must share,
// instantiated over a registry of backends.  Each entry provides one hook —
// "run this rank body over R ranks" — so registering a third backend is a
// one-line addition to backends() below.
//
// The socket entry hosts BOTH endpoints of a 2-process mesh inside this
// test process (each driven from its own thread over a loopback socket
// pair), which exercises the full wire path — framing, epoll loop, blob
// gather — while keeping the suite a plain in-process gtest.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_transport.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::net {
namespace {

using vmpi::Payload;
using vmpi::RankContext;
using vmpi::RunReport;

using RankBody = std::function<void(RankContext&)>;

/// Deletes the rendezvous directory contents on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    std::string pattern = "/tmp/anyblock-conformance-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed");
    path = pattern;
  }
  ~TempDir() {
    const std::string cleanup = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
  }
};

RunReport run_inproc(int ranks, const RankBody& body) {
  return vmpi::run_ranks(ranks, body);
}

/// Both endpoints of a 2-process loopback mesh, hosted in this test
/// process.  One pair can run several rank bodies back to back, like a
/// real process pair would.
class SocketPair {
 public:
  explicit SocketPair(int ranks) {
    SocketTransportConfig config;
    config.world_size = ranks;
    config.process_count = 2;
    config.rendezvous_dir = rendezvous_.path;

    // Both constructors block on the mesh handshake, so they must overlap.
    // Each side gets its config by value before the thread starts.
    SocketTransportConfig other = config;
    other.process_index = 1;
    config.process_index = 0;
    std::exception_ptr setup_error;
    std::thread dialer([&, other] {
      try {
        endpoint1_ = std::make_unique<SocketTransport>(other);
      } catch (...) {
        setup_error = std::current_exception();
      }
    });
    try {
      endpoint0_ = std::make_unique<SocketTransport>(config);
    } catch (...) {
      setup_error = std::current_exception();
    }
    dialer.join();
    if (setup_error) std::rethrow_exception(setup_error);
  }

  RunReport run(int ranks, const RankBody& body) {
    std::exception_ptr side_error;
    std::thread side([&] {
      try {
        vmpi::RunOptions options;
        options.transport = endpoint1_.get();
        vmpi::run_ranks(ranks, body, options);
      } catch (...) {
        side_error = std::current_exception();
      }
    });
    RunReport report;
    std::exception_ptr main_error;
    try {
      vmpi::RunOptions options;
      options.transport = endpoint0_.get();
      report = vmpi::run_ranks(ranks, body, options);
    } catch (...) {
      main_error = std::current_exception();
    }
    side.join();
    if (main_error) std::rethrow_exception(main_error);
    if (side_error) std::rethrow_exception(side_error);
    return report;
  }

 private:
  TempDir rendezvous_;
  std::unique_ptr<SocketTransport> endpoint0_;
  std::unique_ptr<SocketTransport> endpoint1_;
};

/// Splits `ranks` over a fresh 2-process socket mesh.
RunReport run_socket_pair(int ranks, const RankBody& body) {
  return SocketPair(ranks).run(ranks, body);
}

struct Backend {
  std::string name;
  RunReport (*run)(int, const RankBody&);
};

// gtest lists a parameter by its raw bytes unless told otherwise, and those
// bytes hold pointers, so the ctest name would change with every build.
void PrintTo(const Backend& c, std::ostream* os) { *os << c.name; }

std::vector<Backend> backends() {
  return {
      {"inproc", run_inproc},
      {"socket", run_socket_pair},  // a new backend is one more line here
  };
}

class TransportConformance : public ::testing::TestWithParam<Backend> {};

// Ranks 0 and `kRanks - 1` always live in different processes under the
// socket backend's 2-way block split, so cross-boundary paths are covered.
constexpr int kRanks = 5;

TEST_P(TransportConformance, PerSourceTagStreamsStayOrdered) {
  constexpr int kMessages = 50;
  GetParam().run(kRanks, [](RankContext& ctx) {
    const int last = ctx.size() - 1;
    if (ctx.rank() == 0) {
      for (int k = 0; k < kMessages; ++k) {
        ctx.send(last, /*tag=*/7, Payload{static_cast<double>(k)});
        ctx.send(last, /*tag=*/8, Payload{static_cast<double>(100 + k)});
      }
    } else if (ctx.rank() == last) {
      // Interleaved tags: each (source, tag) stream arrives in send order
      // regardless of how the other stream is drained.
      for (int k = 0; k < kMessages; ++k)
        EXPECT_EQ(ctx.recv(0, 8).at(0), 100 + k);
      for (int k = 0; k < kMessages; ++k)
        EXPECT_EQ(ctx.recv(0, 7).at(0), k);
    }
  });
}

TEST_P(TransportConformance, MultisendFansOutWithExactCounts) {
  const RunReport report = GetParam().run(kRanks, [](RankContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<int> dests;
      for (int r = 1; r < ctx.size(); ++r) dests.push_back(r);
      ctx.multisend(dests, /*tag=*/3, Payload{2.5, 3.5});
      EXPECT_EQ(ctx.traffic().messages_sent, ctx.size() - 1);
      EXPECT_EQ(ctx.traffic().doubles_sent, 2 * (ctx.size() - 1));
    } else {
      EXPECT_EQ(ctx.recv(0, 3), (Payload{2.5, 3.5}));
      EXPECT_EQ(ctx.traffic().messages_received, 1);
    }
  });
  EXPECT_EQ(report.total_messages(), kRanks - 1);
  EXPECT_EQ(report.total_messages_received(), kRanks - 1);
  EXPECT_EQ(report.total_doubles(), 2 * (kRanks - 1));
}

TEST_P(TransportConformance, PerSourceRecvDrainsEverySource) {
  // Every other rank sends to the last one, which drains the sources in
  // descending order — a panel owner's fan-in.  Under the socket backend
  // the low ranks sit across the process boundary, so their messages queue
  // in the mailbox while the local ones are drained first.
  static constexpr int kPerSource = 8;
  const RunReport report = GetParam().run(kRanks, [](RankContext& ctx) {
    const int last = ctx.size() - 1;
    if (ctx.rank() == last) {
      for (int source = last - 1; source >= 0; --source)
        for (int k = 0; k < kPerSource; ++k)
          EXPECT_EQ(ctx.recv(source, /*tag=*/11),
                    (Payload{static_cast<double>(source),
                             static_cast<double>(k)}));
      EXPECT_EQ(ctx.traffic().messages_received, kPerSource * last);
    } else {
      for (int k = 0; k < kPerSource; ++k)
        ctx.send(last, /*tag=*/11,
                 Payload{static_cast<double>(ctx.rank()),
                         static_cast<double>(k)});
    }
  });
  EXPECT_EQ(report.total_messages(), kPerSource * (kRanks - 1));
  EXPECT_EQ(report.total_messages_received(), kPerSource * (kRanks - 1));
}

TEST_P(TransportConformance, TimedRecvThrowsAfterRetries) {
  EXPECT_THROW(
      GetParam().run(kRanks,
                     [](RankContext& ctx) {
                       if (ctx.rank() != 0) return;
                       vmpi::RecvOptions options;
                       options.timeout_seconds = 0.01;
                       options.max_retries = 2;
                       ctx.recv(1, /*tag=*/404, options);
                     }),
      vmpi::RecvTimeoutError);
}

TEST_P(TransportConformance, RepeatedRunsAreIndependent) {
  const Backend& backend = GetParam();
  for (int round = 0; round < 2; ++round) {
    const RunReport report = backend.run(kRanks, [&](RankContext& ctx) {
      if (ctx.rank() == 0)
        ctx.send(ctx.size() - 1, /*tag=*/round, Payload{1.0 + round});
      if (ctx.rank() == ctx.size() - 1)
        EXPECT_EQ(ctx.recv(0, round).at(0), 1.0 + round);
    });
    EXPECT_EQ(report.total_messages(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformance,
                         ::testing::ValuesIn(backends()),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param.name;
                         });

TEST(SocketTransport, BackToBackRunsReuseOneMesh) {
  // One mesh, several run_ranks() rounds — like `anyblock launch` running
  // LU then Cholesky.  Arrivals between runs (a fast peer's next-round
  // sends landing while our sink is detached) must be queued, not lost.
  SocketPair mesh(kRanks);
  for (int round = 0; round < 3; ++round) {
    const RunReport report = mesh.run(kRanks, [&](RankContext& ctx) {
      if (ctx.rank() == 0)
        ctx.send(ctx.size() - 1, /*tag=*/round, Payload{1.0 + round});
      if (ctx.rank() == ctx.size() - 1)
        EXPECT_EQ(ctx.recv(0, round).at(0), 1.0 + round);
    });
    EXPECT_EQ(report.total_messages(), 1);
    EXPECT_EQ(report.total_messages_received(), 1);
  }
}

TEST(SocketTransport, RanksOfProcessCoverEveryRankOnce) {
  for (const int world : {1, 2, 5, 23, 31}) {
    for (int processes = 1; processes <= world && processes <= 4;
         ++processes) {
      std::set<int> seen;
      for (int p = 0; p < processes; ++p)
        for (const int rank : ranks_of_process(world, processes, p))
          EXPECT_TRUE(seen.insert(rank).second);
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(world));
    }
  }
}

/// A full mesh of `processes` endpoints over `ranks` ranks, hosted in this
/// test process; the constructors block on the handshake, so they overlap.
std::vector<std::unique_ptr<SocketTransport>> make_mesh(
    int ranks, int processes, const std::string& rendezvous) {
  std::vector<std::unique_ptr<SocketTransport>> endpoints(
      static_cast<std::size_t>(processes));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(processes));
  std::vector<std::thread> threads;
  for (int p = 0; p < processes; ++p) {
    SocketTransportConfig config;
    config.world_size = ranks;
    config.process_count = processes;
    config.process_index = p;
    config.rendezvous_dir = rendezvous;
    threads.emplace_back([&endpoints, &errors, config, p] {
      try {
        endpoints[static_cast<std::size_t>(p)] =
            std::make_unique<SocketTransport>(config);
      } catch (...) {
        errors[static_cast<std::size_t>(p)] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return endpoints;
}

TEST(SocketTransport, GatherSurvivorsFailTypedWhenProcessZeroVanishes) {
  // Process 0 roots every gather; once it is gone, the others must fail
  // loudly with the typed error naming it — never hang, never succeed.
  TempDir rendezvous;
  auto endpoints = make_mesh(3, 3, rendezvous.path);
  endpoints[0].reset();
  std::vector<int> lost(3, -1);
  std::vector<std::thread> survivors;
  for (int p = 1; p < 3; ++p) {
    survivors.emplace_back([&, p] {
      try {
        endpoints[static_cast<std::size_t>(p)]->gather_blobs("blob");
      } catch (const PeerLostError& error) {
        lost[static_cast<std::size_t>(p)] = error.process();
      }
    });
  }
  for (std::thread& thread : survivors) thread.join();
  EXPECT_EQ(lost[1], 0);
  EXPECT_EQ(lost[2], 0);
}

TEST(SocketTransport, GatherRootFailsTypedWhenAContributorVanishes) {
  TempDir rendezvous;
  auto endpoints = make_mesh(3, 3, rendezvous.path);
  endpoints[2].reset();
  std::thread contributor([&] {
    // Process 1's blob reaches the root; the root then fails on process 2
    // and closes, so process 1 loses its root too.
    EXPECT_THROW(endpoints[1]->gather_blobs("one"), PeerLostError);
  });
  try {
    endpoints[0]->gather_blobs("zero");
    ADD_FAILURE() << "the gather root ignored a vanished contributor";
  } catch (const PeerLostError& error) {
    EXPECT_EQ(error.process(), 2);
  }
  endpoints[0].reset();
  contributor.join();
}

TEST(SocketTransport, SocketWithoutRendezvousIsRejected) {
  SocketTransportConfig config;
  config.world_size = 4;
  config.process_count = 2;
  EXPECT_THROW(SocketTransport{config}, std::invalid_argument);
}

}  // namespace
}  // namespace anyblock::net
