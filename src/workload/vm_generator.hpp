// VM request generators.
//
// Reproduces the GRID'11 evaluation setup the paper summarizes: VM resource
// demands are drawn from instance classes (EC2-like) or uniformly per
// dimension, as fractions of a homogeneous host capacity. Each generator is
// seeded for reproducibility.
#pragma once

#include <string>
#include <vector>

#include "hypervisor/vm.hpp"
#include "util/rng.hpp"

namespace snooze::workload {

using hypervisor::ResourceVector;
using hypervisor::VmSpec;

/// An EC2-style instance class: fixed demand vector + RAM footprint.
struct VmClass {
  std::string name;
  ResourceVector demand;  ///< fraction of host capacity per dimension
  double memory_mb = 2048.0;
  double dirty_rate_mbps = 50.0;
};

/// The default class mix (relative to a host normalized to 1.0 per
/// dimension): small / medium / large / xlarge in the usual 1:2:4:8 ratio.
std::vector<VmClass> default_vm_classes();

class VmGenerator {
 public:
  virtual ~VmGenerator() = default;
  /// Produce the next VM request (ids are assigned sequentially from 1).
  virtual VmSpec next() = 0;

  std::vector<VmSpec> batch(std::size_t n);
};

/// Draw a class uniformly (or per supplied weights) from a class list.
class ClassVmGenerator final : public VmGenerator {
 public:
  ClassVmGenerator(std::vector<VmClass> classes, std::uint64_t seed,
                   std::vector<double> weights = {});
  VmSpec next() override;

 private:
  std::vector<VmClass> classes_;
  std::vector<double> weights_;
  util::Rng rng_;
  hypervisor::VmId next_id_ = 1;
};

/// Each dimension drawn independently from U(lo, hi) — the unstructured
/// workload where single-dimension FFD presorting loses the most.
class UniformVmGenerator final : public VmGenerator {
 public:
  UniformVmGenerator(double lo, double hi, std::uint64_t seed);
  VmSpec next() override;

 private:
  double lo_, hi_;
  util::Rng rng_;
  hypervisor::VmId next_id_ = 1;
};

/// Correlated demands: one size factor u ~ U(lo,hi) scaled per dimension by
/// (1 ± spread). Models real VMs whose CPU/memory/network scale together.
class CorrelatedVmGenerator final : public VmGenerator {
 public:
  CorrelatedVmGenerator(double lo, double hi, double spread, std::uint64_t seed);
  VmSpec next() override;

 private:
  double lo_, hi_, spread_;
  util::Rng rng_;
  hypervisor::VmId next_id_ = 1;
};

}  // namespace snooze::workload
