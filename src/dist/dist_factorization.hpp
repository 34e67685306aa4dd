// Owner-computes distributed factorizations over vmpi.
//
// Each node (thread rank) owns the tiles its Distribution assigns to it and
// performs every task writing those tiles (the owner-computes rule of
// Section II-C); input tiles it lacks arrive through a comm::Multicast
// collective rooted at the producing node, whose destination list is
// exactly the communication scheme of Fig. 2.  Under the default eager-p2p
// algorithm the measured per-run message counts equal exact_lu_volume /
// exact_cholesky_volume, and (up to edge effects) the Eq. 1 / Eq. 2
// predictions; under every algorithm they equal the closed-form
// exact_*_messages of core/cost.  Those equalities, plus factorization
// residuals, are what the integration tests assert.
#pragma once

#include <cstdint>

#include "comm/config.hpp"
#include "core/distribution.hpp"
#include "core/replicated.hpp"
#include "fault/fault.hpp"
#include "linalg/tiled_matrix.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::obs {
class Recorder;
}

namespace anyblock::dist {

struct DistRunResult {
  /// The factored matrix, gathered on the caller.
  linalg::TiledMatrix factored;
  /// True when every tile factorization succeeded on its owner.
  bool ok = false;
  /// Tile messages exchanged during the factorization proper (the final
  /// gather to rank 0 is excluded).
  std::int64_t tile_messages = 0;
  /// Tile messages *consumed* during the factorization proper — post-dedup
  /// under fault injection, so this equals tile_messages (and the Eq. 1/2
  /// closed forms) even when the wire carried drops and duplicates.
  std::int64_t tile_messages_received = 0;
  /// Full per-rank traffic including the gather.
  vmpi::RunReport report;
};

/// Distributed right-looking LU without pivoting.  `distribution` must map
/// node ids in [0, P) and serve at least input.tiles() tiles.  `config`
/// selects the tile-multicast collective (eager p2p by default).
///
/// With a non-null `recorder` every rank's sends and recvs are traced on
/// per-rank tracks (see vmpi::run_ranks); factorization-proper messages
/// carry tags < t*t, the final gather uses the band above, so trace
/// consumers can separate the two.
///
/// With a non-null `injector` the transport perturbs deliveries per the
/// seeded fault plan; the reliability protocol (see vmpi) guarantees the
/// factored matrix is bit-identical to the fault-free run.
///
/// This is distributed_lu_25d on the one-layer stacking of `distribution`
/// (core::one_layer).
DistRunResult distributed_lu(const linalg::TiledMatrix& input,
                             const core::Distribution& distribution,
                             const comm::CollectiveConfig& config = {},
                             obs::Recorder* recorder = nullptr,
                             fault::FaultInjector* injector = nullptr);

/// Distributed right-looking lower Cholesky (tiles strictly above the
/// diagonal are neither referenced nor communicated); the one-layer case of
/// distributed_cholesky_25d.
DistRunResult distributed_cholesky(const linalg::TiledMatrix& input,
                                   const core::Distribution& distribution,
                                   const comm::CollectiveConfig& config = {},
                                   obs::Recorder* recorder = nullptr,
                                   fault::FaultInjector* injector = nullptr);

/// Replicated (2.5D) LU (dist_factorization_25d.cpp): P = P_b * c ranks,
/// layer q = rank / P_b holding a full replica of the base layout.  Every
/// iteration runs the right-looking rank body inside its compute layer
/// (l mod c); remote layers flush their partial sums to the home replica
/// right before a tile is finalized.  Under eager p2p the
/// factorization-proper message count equals core::exact_lu_volume_25d;
/// under every collective it equals core::exact_lu_messages_25d.  One
/// layer is the plain 2D factorization (distributed_lu forwards here);
/// with c > 1 the run is deterministic (fixed reduce order) but sums
/// updates in a different order than the 2D schedule.
DistRunResult distributed_lu_25d(const linalg::TiledMatrix& input,
                                 const core::ReplicatedDistribution& dist,
                                 const comm::CollectiveConfig& config = {},
                                 obs::Recorder* recorder = nullptr,
                                 fault::FaultInjector* injector = nullptr);

/// Replicated (2.5D) lower Cholesky; same contract as distributed_lu_25d
/// with core::exact_cholesky_volume_25d / exact_cholesky_messages_25d.
DistRunResult distributed_cholesky_25d(
    const linalg::TiledMatrix& input,
    const core::ReplicatedDistribution& dist,
    const comm::CollectiveConfig& config = {},
    obs::Recorder* recorder = nullptr,
    fault::FaultInjector* injector = nullptr);

}  // namespace anyblock::dist
