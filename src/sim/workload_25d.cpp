#include "sim/workload_25d.hpp"

namespace anyblock::sim {

Implicit25dWorkload::Implicit25dWorkload(
    SimKernel kernel, std::int64_t t,
    const core::ReplicatedDistribution& distribution,
    const MachineConfig& machine)
    : kernel_(kernel),
      t_(t),
      layers_(distribution.layers()),
      dist_(&distribution),
      base_(&distribution.base()),
      base_nodes_(distribution.base_nodes()),
      machine_(&machine) {
  if (t <= 0) throw std::invalid_argument("tile grid must be positive");
  if (kernel != SimKernel::kLu && kernel != SimKernel::kCholesky)
    throw std::invalid_argument("2.5D supports LU and Cholesky");
  task_base_.resize(static_cast<std::size_t>(t) + 1);
  inst_base_.resize(static_cast<std::size_t>(t) + 1);
  layer_.resize(static_cast<std::size_t>(t));
  std::int64_t tasks = 0;
  std::int64_t insts = 0;
  for (std::int64_t l = 0; l < t; ++l) {
    task_base_[static_cast<std::size_t>(l)] = tasks;
    inst_base_[static_cast<std::size_t>(l)] = insts;
    layer_[static_cast<std::size_t>(l)] = distribution.home_layer(l);
    const std::int64_t k = t - 1 - l;
    const std::int64_t fb = flush_block(l);
    total_flops_ += static_cast<double>(fb) *
                    (machine.task_flops(TaskType::kFlush) +
                     machine.task_flops(TaskType::kReduce));
    if (kernel == SimKernel::kLu) {
      tasks += 2 * fb + 1 + 2 * k + k * k;
      insts += fb + 1 + 2 * k;
      total_flops_ += machine.task_flops(TaskType::kGetrf) +
                      2.0 * static_cast<double>(k) *
                          machine.task_flops(TaskType::kTrsm) +
                      static_cast<double>(k) * static_cast<double>(k) *
                          machine.task_flops(TaskType::kGemm);
    } else {
      tasks += 2 * fb + 1 + 2 * k + k * (k - 1) / 2;
      insts += fb + 1 + k;
      total_flops_ += machine.task_flops(TaskType::kPotrf) +
                      static_cast<double>(k) *
                          (machine.task_flops(TaskType::kTrsm) +
                           machine.task_flops(TaskType::kSyrk)) +
                      static_cast<double>(k * (k - 1) / 2) *
                          machine.task_flops(TaskType::kGemm);
    }
  }
  task_base_[static_cast<std::size_t>(t)] = tasks;
  inst_base_[static_cast<std::size_t>(t)] = insts;
  task_count_ = tasks;
  instance_count_ = insts;
  reset_blocks();
}

Implicit25dWorkload::Decoded Implicit25dWorkload::decode(
    std::int64_t id) const {
  const std::int64_t l = iteration_of(id);
  const std::int64_t r = id - task_base_[static_cast<std::size_t>(l)];
  const std::int64_t k = t_ - 1 - l;
  const std::int64_t fb = flush_block(l);
  if (r < 2 * fb) {
    // Flush/reduce blocks: tile-major in finalized-tile order, source-layer
    // slot minor.
    const std::int64_t within = r < fb ? r : r - fb;
    const TaskType type = r < fb ? TaskType::kFlush : TaskType::kReduce;
    const std::int64_t tile = within / rq(l);
    const std::int64_t slot = within % rq(l);
    if (tile == 0) return {type, l, l, l, slot};
    if (kernel_ == SimKernel::kCholesky || tile <= k)
      return {type, l, l + tile, l, slot};
    return {type, l, l, l + (tile - k), slot};
  }
  const std::int64_t r2 = r - 2 * fb;
  if (kernel_ == SimKernel::kLu) {
    if (r2 == 0) return {TaskType::kGetrf, l, l, l};
    if (r2 <= k) return {TaskType::kTrsm, l, l + r2, l};
    if (r2 <= 2 * k) return {TaskType::kTrsm, l, l, l + (r2 - k)};
    const std::int64_t g = r2 - 1 - 2 * k;
    return {TaskType::kGemm, l, l + 1 + g / k, l + 1 + g % k};
  }
  if (r2 == 0) return {TaskType::kPotrf, l, l, l};
  if (r2 <= k) return {TaskType::kTrsm, l, l + r2, l};
  const std::int64_t s = r2 - 1 - k;
  const std::int64_t d = triangular_row(s);
  const std::int64_t e = s - d * (d + 1) / 2;
  const std::int64_t i = l + 1 + d;
  if (e == 0) return {TaskType::kSyrk, l, i, i};
  return {TaskType::kGemm, l, i, l + e};
}

void Implicit25dWorkload::fill_deps(std::int64_t l,
                                    std::vector<std::uint8_t>& counts) const {
  const auto fill = [&](std::int64_t n, std::int64_t deps) {
    counts.insert(counts.end(), static_cast<std::size_t>(n),
                  static_cast<std::uint8_t>(deps));
  };
  const std::int64_t k = t_ - 1 - l;
  const std::int64_t chain = l >= layers_ ? 1 : 0;  // home-layer writer
  // A flush chains after its layer's last update of the tile.
  fill(flush_block(l), 1);
  if (rq(l) > 0) {
    // Per finalized tile: the first reduce waits for its partial (and, once
    // l >= c, the last home-layer update), later ones for a partial and
    // the prior reduce.
    for (std::int64_t tile = 0; tile < flush_block(l) / rq(l); ++tile) {
      fill(1, 1 + chain);
      fill(rq(l) - 1, 2);
    }
  }
  // GETRF/POTRF waits for the previous writer of (l, l), a TRSM for the
  // diagonal as well, an update for its one (SYRK) or two (GEMM) panels.
  fill(1, l > 0 ? 1 : 0);
  fill(kernel_ == SimKernel::kLu ? 2 * k : k, l > 0 ? 2 : 1);
  if (kernel_ == SimKernel::kLu) {
    fill(k * k, 2 + chain);
    return;
  }
  for (std::int64_t d = 0; d < k; ++d) {
    fill(1, 1 + chain);
    fill(d, 2 + chain);
  }
}

TaskView Implicit25dWorkload::task(std::int64_t id) const {
  const Decoded raw = decode(id);
  TaskView view;
  view.type = raw.type;
  view.l = static_cast<std::int32_t>(raw.l);
  view.i = static_cast<std::int32_t>(raw.i);
  view.j = static_cast<std::int32_t>(raw.j);

  const std::int64_t l = raw.l;
  const std::int64_t k = t_ - 1 - l;
  const std::int64_t fb = flush_block(l);
  const std::int64_t base = task_base_[static_cast<std::size_t>(l)];
  const std::int64_t ibase = inst_base_[static_cast<std::size_t>(l)];

  if (raw.type == TaskType::kFlush) {
    view.node = node_on(dist_->remote_layer(l, raw.slot), raw.i, raw.j);
    view.publishes = ibase + tile_index(l, raw.i, raw.j) * rq(l) + raw.slot;
    return view;
  }

  view.node = node_on(layer(l), raw.i, raw.j);

  switch (raw.type) {
    case TaskType::kReduce:
      view.successor = raw.slot + 1 < rq(l)
                           ? id + 1
                           : base + 2 * fb + tile_index(l, raw.i, raw.j);
      break;
    case TaskType::kGetrf:
    case TaskType::kPotrf:
      view.publishes = ibase + fb;
      break;
    case TaskType::kTrsm:
      view.publishes = raw.j == l ? ibase + fb + (raw.i - l)
                                  : ibase + fb + k + (raw.j - l);
      break;
    case TaskType::kSyrk: {
      // SYRK(l, i, i): next writer of (i, i) on layer l mod c.
      const std::int64_t m = raw.i;
      if (l + layers_ < m) {
        view.successor = chol_row(l + layers_, raw.i);
      } else if (layer(l) == layer(m)) {
        view.successor = finalize_entry(m, raw.i, raw.i);
      } else {
        view.successor = flush_task(m, raw.i, raw.i, layer(l));
      }
      break;
    }
    case TaskType::kGemm: {
      const std::int64_t m = raw.i < raw.j ? raw.i : raw.j;
      if (l + layers_ < m) {
        view.successor = kernel_ == SimKernel::kLu
                             ? lu_gemm(l + layers_, raw.i, raw.j)
                             : chol_row(l + layers_, raw.i) +
                                   (raw.j - (l + layers_));
      } else if (layer(l) == layer(m)) {
        view.successor = finalize_entry(m, raw.i, raw.j);
      } else {
        view.successor = flush_task(m, raw.i, raw.j, layer(l));
      }
      break;
    }
    case TaskType::kFlush:
      break;
  }
  return view;
}

Implicit25dWorkload::InstanceHandle Implicit25dWorkload::publish(
    std::int64_t instance, const TaskView& task) {
  ImplicitInstance& state = begin_instance(instance, task.node);
  const std::int64_t l = task.l;
  const std::int64_t i = task.i;
  const std::int64_t j = task.j;
  const std::int64_t t = t_;
  const std::int64_t k = t - 1 - l;
  const std::int64_t fb = flush_block(l);
  const std::int64_t base = task_base_[static_cast<std::size_t>(l)];
  const std::int64_t body = base + 2 * fb;  ///< first 2D-body task of l
  const std::int64_t home = layer(l);
  const auto node = [&](std::int64_t i2, std::int64_t j2) {
    return node_on(home, i2, j2);
  };

  // Consumer ordinals are computed once per loop, not per consumer: the
  // loops below run once per published tile and consumer.
  if (task.type == TaskType::kFlush) {
    // One consumer: the matching reduce on the home replica, at the same
    // offset inside the reduce block as this flush inside the flush block.
    const std::int64_t offset =
        instance - inst_base_[static_cast<std::size_t>(l)];
    add_consumer(state, node(i, j), base + fb + offset);
  } else if (task.type == TaskType::kGetrf) {
    for (std::int64_t i2 = l + 1; i2 < t; ++i2)
      add_consumer(state, node(i2, l), body + (i2 - l));
    for (std::int64_t j2 = l + 1; j2 < t; ++j2)
      add_consumer(state, node(l, j2), body + k + (j2 - l));
  } else if (task.type == TaskType::kPotrf) {
    for (std::int64_t i2 = l + 1; i2 < t; ++i2)
      add_consumer(state, node(i2, l), body + (i2 - l));
  } else if (kernel_ == SimKernel::kLu && j == l) {
    // TRSM(l, i, l): the GEMM row i.
    const std::int64_t row = lu_gemm(l, i, l + 1);
    for (std::int64_t j2 = l + 1; j2 < t; ++j2)
      add_consumer(state, node(i, j2), row + (j2 - l - 1));
  } else if (kernel_ == SimKernel::kLu) {
    // TRSM(l, l, j): the GEMM column j.
    const std::int64_t column = lu_gemm(l, l + 1, j);
    for (std::int64_t i2 = l + 1; i2 < t; ++i2)
      add_consumer(state, node(i2, j), column + (i2 - l - 1) * k);
  } else {
    // Cholesky TRSM(l, i, l): SYRK(i, i), the GEMMs of row i, then the
    // GEMMs of column i in lower rows — the builder's traversal.
    const std::int64_t row = chol_row(l, i);
    add_consumer(state, node(i, i), row);
    for (std::int64_t j2 = l + 1; j2 < i; ++j2)
      add_consumer(state, node(i, j2), row + (j2 - l));
    for (std::int64_t i2 = i + 1; i2 < t; ++i2)
      add_consumer(state, node(i2, i), chol_row(l, i2) + (i - l));
  }
  return &state;
}

}  // namespace anyblock::sim
