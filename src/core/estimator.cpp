#include "core/estimator.hpp"

#include <algorithm>

namespace snooze::core {

using hypervisor::ResourceVector;

ResourceEstimator::ResourceEstimator(std::size_t window, EstimatorKind kind,
                                     double ewma_alpha)
    : window_(std::max<std::size_t>(1, window)), kind_(kind), alpha_(ewma_alpha) {}

void ResourceEstimator::add(const ResourceVector& sample) {
  ++samples_;
  if (kind_ == EstimatorKind::kWindowMax) {
    if (recent_.size() < window_) {
      if (recent_.empty()) recent_.reserve(window_);
      recent_.push_back(sample);
    } else {
      recent_[(samples_ - 1) % window_] = sample;  // overwrite the oldest
    }
  } else {
    if (samples_ == 1) {
      ewma_ = sample;
    } else {
      for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
        ewma_[d] = alpha_ * sample[d] + (1.0 - alpha_) * ewma_[d];
      }
    }
  }
}

ResourceVector ResourceEstimator::estimate() const {
  if (samples_ == 0) return {};
  if (kind_ == EstimatorKind::kEwma) return ewma_;
  ResourceVector max;
  for (const auto& s : recent_) {
    for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
      max[d] = std::max(max[d], s[d]);
    }
  }
  return max;
}

}  // namespace snooze::core
