// Overload / underload relocation planning (paper §II.C).
//
// Overload: "VMs must be relocated to a more lightly loaded node in order to
// mitigate performance degradation" — move the largest VMs off the hot node
// until its estimated utilization drops below the threshold.
// Underload: "it is beneficial to move away VMs to moderately loaded LCs in
// order to create enough idle-time to transition the underutilized LCs into
// a lower power state" — evacuate the cold node entirely, but only onto
// nodes that are neither underloaded themselves nor pushed into overload.
#pragma once

#include <vector>

#include "core/policies.hpp"

namespace snooze::core {

struct RelocationMove {
  VmId vm = hypervisor::kNullVm;
  Address from = net::kNullAddress;
  Address to = net::kNullAddress;
};

/// Estimated per-VM demand on the anomalous LC.
struct VmLoad {
  VmId vm = hypervisor::kNullVm;
  ResourceVector estimated;
  ResourceVector requested;
};

/// Plan moves off an overloaded LC. Targets are powered-on LCs ordered by
/// ascending utilization; reservation feasibility is respected. Returns an
/// empty plan when no target can absorb any VM.
std::vector<RelocationMove> plan_overload_relocation(
    const LcInfo& overloaded, const std::vector<VmLoad>& vms,
    const std::vector<LcInfo>& other_lcs, double overload_threshold);

/// Plan the full evacuation of an underloaded LC onto moderately loaded
/// targets. Returns an empty plan unless *every* VM can be rehomed (partial
/// evacuation does not create idle time, so it is pointless).
std::vector<RelocationMove> plan_underload_relocation(
    const LcInfo& underloaded, const std::vector<VmLoad>& vms,
    const std::vector<LcInfo>& other_lcs, double underload_threshold,
    double overload_threshold);

}  // namespace snooze::core
