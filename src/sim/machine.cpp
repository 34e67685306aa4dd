#include "sim/machine.hpp"

#include <limits>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace anyblock::sim {

std::int64_t estimated_task_count(bool symmetric, std::int64_t tiles) {
  if (tiles >= 2'000'000)  // t^3 would overflow; the answer is "huge" anyway
    return std::numeric_limits<std::int64_t>::max();
  const std::int64_t cubic =
      symmetric ? tiles * tiles * tiles / 6 : tiles * tiles * tiles / 3;
  return cubic + tiles * tiles + tiles;
}

WorkloadMode choose_workload_mode(const std::string& name,
                                  std::int64_t /*estimated_tasks*/) {
  if (name == "auto" || name == "implicit") return WorkloadMode::kImplicit;
  throw std::invalid_argument("unknown workload mode: " + name +
                              " (expected auto|implicit)");
}

double MachineConfig::task_flops(TaskType type) const {
  switch (type) {
    case TaskType::kGetrf: return linalg::getrf_flops(tile_size);
    case TaskType::kPotrf: return linalg::potrf_flops(tile_size);
    case TaskType::kTrsm: return linalg::trsm_flops(tile_size);
    case TaskType::kGemm: return linalg::gemm_flops(tile_size);
    case TaskType::kSyrk: return linalg::syrk_flops(tile_size);
    case TaskType::kFlush: return 0.0;
    case TaskType::kReduce:
      // Element-wise add of one received partial sum into the home tile.
      return static_cast<double>(tile_size) * static_cast<double>(tile_size);
  }
  return 0.0;
}

double MachineConfig::task_seconds(TaskType type) const {
  return task_flops(type) / (core_gflops * 1e9);
}

double MachineConfig::perturbed_speed(std::int64_t node) const {
  double speed = speed_of(node);
  if (faults.slow_node_fraction > 0.0 &&
      fault::unit_draw(faults.seed,
                       {fault::kStreamSlowNode,
                        static_cast<std::uint64_t>(node)}) <
          faults.slow_node_fraction)
    speed *= faults.slow_node_speed;
  return speed;
}

}  // namespace anyblock::sim
