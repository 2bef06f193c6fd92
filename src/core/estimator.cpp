#include "core/estimator.hpp"

#include <algorithm>

namespace snooze::core {

using hypervisor::ResourceVector;

ResourceEstimator::ResourceEstimator(std::size_t window)
    : window_(std::max<std::size_t>(1, window)) {}

void ResourceEstimator::add(const ResourceVector& sample) {
  ++samples_;
  if (recent_.size() < window_) {
    if (recent_.empty()) recent_.reserve(window_);
    recent_.push_back(sample);
  } else {
    recent_[(samples_ - 1) % window_] = sample;  // overwrite the oldest
  }
}

ResourceVector ResourceEstimator::estimate() const {
  if (samples_ == 0) return {};
  ResourceVector max;
  for (const auto& s : recent_) {
    for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
      max[d] = std::max(max[d], s[d]);
    }
  }
  return max;
}

}  // namespace snooze::core
