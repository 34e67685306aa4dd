#include "sim/implicit_workload.hpp"

namespace anyblock::sim {

ImplicitWorkload::ImplicitWorkload(std::int64_t t, std::int64_t k,
                                   const core::Distribution& dist_c,
                                   const core::Distribution& dist_a,
                                   const MachineConfig& machine)
    : t_(t), k_(k), dist_c_(&dist_c), dist_a_(&dist_a), machine_(&machine) {
  if (t <= 0 || k <= 0)
    throw std::invalid_argument("tile grids must be positive");
  task_count_ = t * k + k * (t * (t + 1) / 2);
  instance_count_ = t * k;
  // Dependency blocks: the updates of each A column (the loads before
  // them are ready at once).  Instance blocks: the k loads of each A row.
  for (std::int64_t l = 0; l <= k; ++l)
    task_base_.push_back(syrk_row(l, 0));
  for (std::int64_t i = 0; i <= t; ++i) inst_base_.push_back(i * k);
  reset_blocks();
  total_flops_ =
      static_cast<double>(k) *
      (static_cast<double>(t) * machine.task_flops(TaskType::kSyrk) +
       static_cast<double>(t * (t - 1) / 2) *
           machine.task_flops(TaskType::kGemm));
}

ImplicitWorkload::Decoded ImplicitWorkload::decode(std::int64_t id) const {
  if (id < t_ * k_) return {TaskType::kLoad, -1, -1, -1};
  const std::int64_t block = t_ * (t_ + 1) / 2;
  const std::int64_t r = id - t_ * k_;
  const std::int64_t l = r / block;
  const std::int64_t w = r - l * block;
  const std::int64_t i = triangular_row(w);
  const std::int64_t e = w - i * (i + 1) / 2;
  if (e == 0) return {TaskType::kSyrk, l, i, i};
  return {TaskType::kGemm, l, i, e - 1};
}

void ImplicitWorkload::fill_deps(std::int64_t l,
                                 std::vector<std::uint8_t>& counts) const {
  // Row i of the block: SYRK(i, i), then GEMM(i, 0 .. i - 1).
  const int chain = l > 0 ? 1 : 0;
  for (std::int64_t i = 0; i < t_; ++i) {
    counts.push_back(static_cast<std::uint8_t>(1 + chain));
    counts.insert(counts.end(), static_cast<std::size_t>(i),
                  static_cast<std::uint8_t>(2 + chain));
  }
}

TaskView ImplicitWorkload::task(std::int64_t id) const {
  const Decoded raw = decode(id);
  TaskView view;
  view.type = raw.type;
  view.l = static_cast<std::int32_t>(raw.l);
  view.i = static_cast<std::int32_t>(raw.i);
  view.j = static_cast<std::int32_t>(raw.j);
  if (raw.type == TaskType::kLoad) {
    // Loads keep l = i = j = -1 (materialized parity); their node and
    // published instance come from the ordinal: loads are created i-major,
    // column-minor, so load/instance ordinal = i * k + l.
    view.node = checked(dist_a_->owner(id / k_, (id % k_) % t_));
    view.publishes = id;
    return view;
  }
  view.node = checked(dist_c_->owner(raw.i, raw.j));
  // Update tasks publish nothing; each chains to the same (i, j) update of
  // the next A column.
  if (raw.l + 1 < k_)
    view.successor = raw.type == TaskType::kSyrk
                         ? syrk_row(raw.l + 1, raw.i)
                         : syrk_row(raw.l + 1, raw.i) + 1 + raw.j;
  return view;
}

ImplicitWorkload::InstanceHandle ImplicitWorkload::publish(
    std::int64_t instance, const TaskView& task) {
  ImplicitInstance& state = begin_instance(instance, task.node);
  // A load: the instance ordinal encodes (row ir, column lc); A(ir, lc)
  // feeds SYRK(ir, ir), the GEMMs of row ir, then column ir below it.
  const std::int64_t ir = instance / k_;
  const std::int64_t lc = instance % k_;
  const auto owner = [&](std::int64_t i, std::int64_t j) {
    return checked(dist_c_->owner(i, j));
  };
  add_consumer(state, owner(ir, ir), syrk_row(lc, ir));
  for (std::int64_t j2 = 0; j2 < ir; ++j2)
    add_consumer(state, owner(ir, j2), syrk_row(lc, ir) + 1 + j2);
  for (std::int64_t i2 = ir + 1; i2 < t_; ++i2)
    add_consumer(state, owner(i2, ir), syrk_row(lc, i2) + 1 + ir);
  return &state;
}

}  // namespace anyblock::sim
