#include "sim/oracle/materialized_workload.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace anyblock::sim {
namespace {

/// Incremental builder sharing the chain/instance bookkeeping of every
/// materialized generator.  Chains are keyed by (tile, layer): a task
/// writing tile (i, j) on layer q chains after the previous writer of that
/// tile *on the same layer* (same node, no communication).  SYRK and
/// one-layer factorizations use layer 0 only, so the key is the tile.
class WorkloadBuilder {
 public:
  WorkloadBuilder(std::int64_t t, std::int64_t layers,
                  const MachineConfig& machine)
      : t_(t),
        layers_(layers),
        machine_(machine),
        last_writer_(static_cast<std::size_t>(t * t * layers), -1),
        instance_of_tile_(static_cast<std::size_t>(t * t), -1) {}

  /// Creates a task writing tile (i, j) on `layer`, run by `node`.
  std::int64_t add_task(TaskType type, std::int64_t l, std::int64_t i,
                        std::int64_t j, std::int64_t node,
                        std::int64_t layer = 0) {
    const auto id = static_cast<std::int64_t>(work_.tasks.size());
    SimTask task;
    task.type = type;
    task.l = static_cast<std::int32_t>(l);
    task.i = static_cast<std::int32_t>(i);
    task.j = static_cast<std::int32_t>(j);
    task.node = static_cast<std::int32_t>(node);
    task.deps = 0;
    const auto key = static_cast<std::size_t>((i * t_ + j) * layers_ + layer);
    if (last_writer_[key] >= 0) {
      work_.tasks[static_cast<std::size_t>(last_writer_[key])].successor = id;
      ++task.deps;
    }
    last_writer_[key] = id;
    work_.tasks.push_back(task);
    work_.total_flops += machine_.task_flops(type);
    return id;
  }

  /// Creates a zero-cost task on `node` standing for an input tile that is
  /// already resident there (SYRK's A panel).
  std::int64_t add_load_task(std::int64_t node) {
    const auto id = static_cast<std::int64_t>(work_.tasks.size());
    SimTask task;
    task.type = TaskType::kLoad;
    task.l = task.i = task.j = -1;
    task.node = static_cast<std::int32_t>(node);
    task.deps = 0;
    work_.tasks.push_back(task);
    return id;
  }

  /// Marks `task` as publishing an instance; returns its handle.
  std::int64_t publish_instance(std::int64_t task) {
    const auto inst = static_cast<std::int64_t>(work_.instances.size());
    work_.instances.push_back(
        {work_.tasks[static_cast<std::size_t>(task)].node, {}});
    work_.tasks[static_cast<std::size_t>(task)].publishes = inst;
    return inst;
  }

  /// Marks `task` as publishing tile (i, j) for later consumption.
  void publish(std::int64_t task, std::int64_t i, std::int64_t j) {
    instance_of_tile_[static_cast<std::size_t>(i * t_ + j)] =
        publish_instance(task);
  }

  /// Registers `task` as consuming instance `inst`: one more dependency,
  /// satisfied locally on the producer's node or by a message.
  void consume_instance(std::int64_t task, std::int64_t inst) {
    Instance& instance = work_.instances[static_cast<std::size_t>(inst)];
    SimTask& consumer = work_.tasks[static_cast<std::size_t>(task)];
    ++consumer.deps;
    for (auto& group : instance.groups) {
      if (group.node == consumer.node) {
        group.waiters.push_back(task);
        return;
      }
    }
    instance.groups.push_back({consumer.node, {task}});
  }

  /// Tile-keyed consume for the factorization builders.
  void consume(std::int64_t task, std::int64_t i, std::int64_t j) {
    const std::int64_t inst =
        instance_of_tile_[static_cast<std::size_t>(i * t_ + j)];
    if (inst < 0) throw std::logic_error("consuming an unpublished tile");
    consume_instance(task, inst);
  }

  Workload take() { return std::move(work_); }

 private:
  std::int64_t t_;
  std::int64_t layers_;
  const MachineConfig& machine_;
  Workload work_;
  std::vector<std::int64_t> last_writer_;  ///< keyed (i*t + j)*c + layer
  std::vector<std::int64_t> instance_of_tile_;
};

/// Emits the flush block then the reduce block of iteration l over the
/// finalized tiles listed by `for_each_tile` (called twice, same order).
/// Both blocks are empty while no remote layer holds a partial sum, which
/// is every iteration at one layer.
template <class ForEachTile>
void add_reduction_blocks(WorkloadBuilder& builder,
                          const core::ReplicatedDistribution& dist,
                          std::int64_t l, ForEachTile&& for_each_tile) {
  const std::int64_t remote = dist.remote_layer_count(l);
  if (remote == 0) return;
  std::vector<std::int64_t> flushes;
  for_each_tile([&](std::int64_t i, std::int64_t j) {
    for (std::int64_t s = 0; s < remote; ++s) {
      const std::int64_t q = dist.remote_layer(l, s);
      const std::int64_t flush = builder.add_task(
          TaskType::kFlush, l, i, j,
          dist.replica(dist.base().owner(i, j), q), q);
      flushes.push_back(builder.publish_instance(flush));
    }
  });
  std::size_t next = 0;
  const std::int64_t home = dist.home_layer(l);
  for_each_tile([&](std::int64_t i, std::int64_t j) {
    for (std::int64_t s = 0; s < remote; ++s) {
      const std::int64_t reduce = builder.add_task(
          TaskType::kReduce, l, i, j, dist.compute_node(l, i, j), home);
      builder.consume_instance(reduce, flushes[next++]);
    }
  });
}

}  // namespace

std::int64_t message_count(const Workload& work) {
  std::int64_t count = 0;
  for (const auto& instance : work.instances) {
    for (const auto& group : instance.groups) {
      if (group.node != instance.producer_node) ++count;
    }
  }
  return count;
}

Workload build_lu_workload_25d(std::int64_t t,
                               const core::ReplicatedDistribution& distribution,
                               const MachineConfig& machine) {
  if (t <= 0) throw std::invalid_argument("tile grid must be positive");
  WorkloadBuilder builder(t, distribution.layers(), machine);
  const core::Distribution& base = distribution.base();
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t home = distribution.home_layer(l);
    const std::int64_t offset = home * distribution.base_nodes();
    const auto add = [&](TaskType type, std::int64_t i, std::int64_t j) {
      // compute_node(l, i, j), with the layer offset hoisted out.
      return builder.add_task(type, l, i, j, offset + base.owner(i, j), home);
    };
    add_reduction_blocks(builder, distribution, l, [&](auto&& tile) {
      tile(l, l);
      for (std::int64_t i = l + 1; i < t; ++i) tile(i, l);
      for (std::int64_t j = l + 1; j < t; ++j) tile(l, j);
    });
    const std::int64_t getrf = add(TaskType::kGetrf, l, l);
    builder.publish(getrf, l, l);
    for (std::int64_t i = l + 1; i < t; ++i) {
      const std::int64_t trsm = add(TaskType::kTrsm, i, l);
      builder.consume(trsm, l, l);
      builder.publish(trsm, i, l);
    }
    for (std::int64_t j = l + 1; j < t; ++j) {
      const std::int64_t trsm = add(TaskType::kTrsm, l, j);
      builder.consume(trsm, l, l);
      builder.publish(trsm, l, j);
    }
    for (std::int64_t i = l + 1; i < t; ++i) {
      for (std::int64_t j = l + 1; j < t; ++j) {
        const std::int64_t gemm = add(TaskType::kGemm, i, j);
        builder.consume(gemm, i, l);
        builder.consume(gemm, l, j);
      }
    }
  }
  return builder.take();
}

Workload build_cholesky_workload_25d(
    std::int64_t t, const core::ReplicatedDistribution& distribution,
    const MachineConfig& machine) {
  if (t <= 0) throw std::invalid_argument("tile grid must be positive");
  WorkloadBuilder builder(t, distribution.layers(), machine);
  const core::Distribution& base = distribution.base();
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t home = distribution.home_layer(l);
    const std::int64_t offset = home * distribution.base_nodes();
    const auto add = [&](TaskType type, std::int64_t i, std::int64_t j) {
      // compute_node(l, i, j), with the layer offset hoisted out.
      return builder.add_task(type, l, i, j, offset + base.owner(i, j), home);
    };
    add_reduction_blocks(builder, distribution, l, [&](auto&& tile) {
      tile(l, l);
      for (std::int64_t i = l + 1; i < t; ++i) tile(i, l);
    });
    const std::int64_t potrf = add(TaskType::kPotrf, l, l);
    builder.publish(potrf, l, l);
    for (std::int64_t i = l + 1; i < t; ++i) {
      const std::int64_t trsm = add(TaskType::kTrsm, i, l);
      builder.consume(trsm, l, l);
      builder.publish(trsm, i, l);
    }
    for (std::int64_t i = l + 1; i < t; ++i) {
      const std::int64_t syrk = add(TaskType::kSyrk, i, i);
      builder.consume(syrk, i, l);
      for (std::int64_t j = l + 1; j < i; ++j) {
        const std::int64_t gemm = add(TaskType::kGemm, i, j);
        builder.consume(gemm, i, l);
        builder.consume(gemm, j, l);
      }
    }
  }
  return builder.take();
}

Workload build_syrk_workload(std::int64_t t, std::int64_t k,
                             const core::Distribution& dist_c,
                             const core::Distribution& dist_a,
                             const MachineConfig& machine) {
  if (t <= 0 || k <= 0)
    throw std::invalid_argument("tile grids must be positive");
  WorkloadBuilder builder(t, 1, machine);

  // A tiles: resident inputs, one published instance each.
  std::vector<std::int64_t> a_instance(static_cast<std::size_t>(t * k));
  for (std::int64_t i = 0; i < t; ++i) {
    for (std::int64_t l = 0; l < k; ++l) {
      const std::int64_t load = builder.add_load_task(dist_a.owner(i, l % t));
      a_instance[static_cast<std::size_t>(i * k + l)] =
          builder.publish_instance(load);
    }
  }
  const auto a_inst = [&](std::int64_t i, std::int64_t l) {
    return a_instance[static_cast<std::size_t>(i * k + l)];
  };

  for (std::int64_t l = 0; l < k; ++l) {
    for (std::int64_t i = 0; i < t; ++i) {
      const std::int64_t syrk =
          builder.add_task(TaskType::kSyrk, l, i, i, dist_c.owner(i, i));
      builder.consume_instance(syrk, a_inst(i, l));
      for (std::int64_t j = 0; j < i; ++j) {
        const std::int64_t gemm =
            builder.add_task(TaskType::kGemm, l, i, j, dist_c.owner(i, j));
        builder.consume_instance(gemm, a_inst(i, l));
        builder.consume_instance(gemm, a_inst(j, l));
      }
    }
  }
  return builder.take();
}

}  // namespace anyblock::sim
