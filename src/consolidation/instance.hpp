// Consolidation problem instance and placement representation.
//
// The consolidation problem is multi-dimensional vector bin-packing: assign
// every VM (demand vector) to a host (capacity vector) minimizing the number
// of hosts used. Hosts may be heterogeneous; homogeneous instances (the
// GRID'11 evaluation setting) set every capacity equal.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "hypervisor/resources.hpp"

namespace snooze::consolidation {

using hypervisor::ResourceVector;

/// Index of a host in an Instance; kUnassigned marks an unplaced VM.
using HostIndex = std::int32_t;
constexpr HostIndex kUnassigned = -1;

struct Instance {
  std::vector<ResourceVector> vm_demands;
  std::vector<ResourceVector> host_capacities;

  [[nodiscard]] std::size_t vm_count() const { return vm_demands.size(); }
  [[nodiscard]] std::size_t host_count() const { return host_capacities.size(); }

  /// Homogeneous convenience constructor: `hosts` identical hosts.
  static Instance homogeneous(std::vector<ResourceVector> demands, std::size_t hosts,
                              ResourceVector capacity = {1.0, 1.0, 1.0});

  /// Lower bound on the number of hosts needed (max over dimensions of the
  /// total demand / single-host capacity — valid for homogeneous hosts; for
  /// heterogeneous hosts uses the largest host as denominator, still valid).
  [[nodiscard]] std::size_t lower_bound_hosts() const;
};

/// A (partial) assignment of VMs to hosts.
class Placement {
 public:
  Placement() = default;
  explicit Placement(std::size_t vm_count) : assignment_(vm_count, kUnassigned) {}

  [[nodiscard]] std::size_t vm_count() const { return assignment_.size(); }
  [[nodiscard]] HostIndex host_of(std::size_t vm) const { return assignment_[vm]; }
  void assign(std::size_t vm, HostIndex host) { assignment_[vm] = host; }

  [[nodiscard]] bool complete() const;

  /// Number of distinct hosts with at least one VM.
  [[nodiscard]] std::size_t hosts_used() const;

  /// Per-host aggregated load for `instance` (index-aligned with hosts).
  [[nodiscard]] std::vector<ResourceVector> loads(const Instance& instance) const;

  /// True if every VM is assigned and no host capacity is exceeded.
  [[nodiscard]] bool feasible(const Instance& instance) const;

  [[nodiscard]] const std::vector<HostIndex>& raw() const { return assignment_; }

  friend bool operator==(const Placement&, const Placement&) = default;

 private:
  std::vector<HostIndex> assignment_;
};

}  // namespace snooze::consolidation
