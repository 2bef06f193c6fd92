// Resource-demand estimation (paper §II.B).
//
// Group Managers estimate each VM's demand from the monitoring samples the
// LCs report: the component-wise maximum over a sliding window of recent
// samples, which never underestimates recent demand. Scheduling uses the
// estimate, not the raw instantaneous sample, so placement decisions
// survive short spikes.
#pragma once

#include <cstddef>
#include <vector>

#include "hypervisor/resources.hpp"

namespace snooze::core {

class ResourceEstimator {
 public:
  explicit ResourceEstimator(std::size_t window = 5);

  void add(const hypervisor::ResourceVector& sample);

  /// Current demand estimate; zero vector before the first sample.
  [[nodiscard]] hypervisor::ResourceVector estimate() const;

  [[nodiscard]] bool empty() const { return samples_ == 0; }
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  std::size_t window_;
  /// Window-max samples: a ring of at most window_ slots, reserved on the
  /// first sample. Sample k (from 1) lands in slot (k - 1) % window_, so
  /// once the ring is full each sample overwrites the oldest one.
  std::vector<hypervisor::ResourceVector> recent_;
  std::size_t samples_ = 0;
};

}  // namespace snooze::core
