#include "core/replicated.hpp"

#include <stdexcept>
#include <utility>

namespace anyblock::core {

ReplicatedDistribution::ReplicatedDistribution(
    std::shared_ptr<const Distribution> base, std::int64_t layers)
    : base_(std::move(base)), layers_(layers) {
  if (!base_) throw std::invalid_argument("replicated: null base distribution");
  if (layers_ < 1)
    throw std::invalid_argument("replicated: memory factor must be >= 1, got " +
                                std::to_string(layers_));
}

NodeId ReplicatedDistribution::owner(std::int64_t i, std::int64_t j) const {
  const std::int64_t m = i < j ? i : j;
  return replica(base_->owner(i, j), home_layer(m));
}

std::string ReplicatedDistribution::name() const {
  if (layers_ == 1) return base_->name();
  return base_->name() + "+2.5d(c=" + std::to_string(layers_) + ")";
}

ReplicatedDistribution one_layer(const Distribution& base) {
  // Aliasing constructor with an empty owner: a non-owning pointer.
  return ReplicatedDistribution(
      std::shared_ptr<const Distribution>(std::shared_ptr<const void>(),
                                          &base),
      1);
}

}  // namespace anyblock::core
