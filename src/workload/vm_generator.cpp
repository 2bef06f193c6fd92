#include "workload/vm_generator.hpp"

#include <algorithm>
#include <cassert>

namespace snooze::workload {

std::vector<VmClass> default_vm_classes() {
  return {
      {"small", ResourceVector{0.0625, 0.0625, 0.0625}, 1024.0, 25.0},
      {"medium", ResourceVector{0.125, 0.125, 0.125}, 2048.0, 50.0},
      {"large", ResourceVector{0.25, 0.25, 0.25}, 4096.0, 75.0},
      {"xlarge", ResourceVector{0.5, 0.5, 0.5}, 8192.0, 100.0},
  };
}

std::vector<VmSpec> VmGenerator::batch(std::size_t n) {
  std::vector<VmSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(next());
  return out;
}

ClassVmGenerator::ClassVmGenerator(std::vector<VmClass> classes, std::uint64_t seed,
                                   std::vector<double> weights)
    : classes_(std::move(classes)), weights_(std::move(weights)), rng_(seed) {
  assert(!classes_.empty());
  if (weights_.empty()) weights_.assign(classes_.size(), 1.0);
  assert(weights_.size() == classes_.size());
}

VmSpec ClassVmGenerator::next() {
  const std::size_t idx = rng_.weighted_index(weights_);
  const VmClass& cls = classes_[idx < classes_.size() ? idx : 0];
  VmSpec spec;
  spec.id = next_id_++;
  spec.requested = cls.demand;
  spec.memory_mb = cls.memory_mb;
  spec.dirty_rate_mbps = cls.dirty_rate_mbps;
  return spec;
}

UniformVmGenerator::UniformVmGenerator(double lo, double hi, std::uint64_t seed)
    : lo_(lo), hi_(hi), rng_(seed) {
  assert(lo >= 0.0 && hi <= 1.0 && lo <= hi);
}

VmSpec UniformVmGenerator::next() {
  VmSpec spec;
  spec.id = next_id_++;
  spec.requested = ResourceVector{rng_.uniform(lo_, hi_), rng_.uniform(lo_, hi_),
                                  rng_.uniform(lo_, hi_)};
  spec.memory_mb = 1024.0 + spec.requested.memory() * 14336.0;
  spec.dirty_rate_mbps = 25.0 + spec.requested.cpu() * 150.0;
  return spec;
}

CorrelatedVmGenerator::CorrelatedVmGenerator(double lo, double hi, double spread,
                                             std::uint64_t seed)
    : lo_(lo), hi_(hi), spread_(spread), rng_(seed) {
  assert(lo >= 0.0 && hi <= 1.0 && lo <= hi && spread >= 0.0 && spread < 1.0);
}

VmSpec CorrelatedVmGenerator::next() {
  const double size = rng_.uniform(lo_, hi_);
  auto dim = [&] { return std::clamp(size * (1.0 + rng_.uniform(-spread_, spread_)), 0.0, 1.0); };
  VmSpec spec;
  spec.id = next_id_++;
  spec.requested = ResourceVector{dim(), dim(), dim()};
  spec.memory_mb = 1024.0 + spec.requested.memory() * 14336.0;
  spec.dirty_rate_mbps = 25.0 + spec.requested.cpu() * 150.0;
  return spec;
}

}  // namespace snooze::workload
