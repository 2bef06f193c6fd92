#include "core/relocation.hpp"

#include <algorithm>

namespace snooze::core {

namespace {

struct Target {
  LcInfo info;  // mutated as we tentatively assign VMs
};

std::vector<Target> sorted_targets(const std::vector<LcInfo>& lcs) {
  std::vector<Target> targets;
  targets.reserve(lcs.size());
  for (const LcInfo& lc : lcs) {
    if (lc.powered_on) targets.push_back(Target{lc});
  }
  std::stable_sort(targets.begin(), targets.end(), [](const Target& a, const Target& b) {
    return a.info.utilization() < b.info.utilization();
  });
  return targets;
}

bool would_overload(const Target& t, const ResourceVector& estimated,
                    double overload_threshold) {
  return (t.info.estimated_used + estimated).max_utilization(t.info.capacity) >
         overload_threshold;
}

}  // namespace

std::vector<RelocationMove> plan_overload_relocation(const LcInfo& overloaded,
                                                     const std::vector<VmLoad>& vms,
                                                     const std::vector<LcInfo>& other_lcs,
                                                     double overload_threshold) {
  std::vector<RelocationMove> plan;
  auto targets = sorted_targets(other_lcs);
  if (targets.empty() || vms.empty()) return plan;

  // Biggest VMs first: fewest migrations to get below the threshold.
  std::vector<VmLoad> ordered = vms;
  std::stable_sort(ordered.begin(), ordered.end(), [](const VmLoad& a, const VmLoad& b) {
    return a.estimated.l1_norm() > b.estimated.l1_norm();
  });

  ResourceVector residual_used = overloaded.estimated_used;
  for (const VmLoad& vm : ordered) {
    if (residual_used.max_utilization(overloaded.capacity) <= overload_threshold) break;
    for (Target& t : targets) {
      if (!t.info.fits(vm.requested)) continue;
      if (would_overload(t, vm.estimated, overload_threshold)) continue;
      plan.push_back(RelocationMove{vm.vm, overloaded.lc, t.info.lc});
      t.info.reserved += vm.requested;
      t.info.estimated_used += vm.estimated;
      t.info.vm_count += 1;
      residual_used -= vm.estimated;
      break;
    }
  }
  if (residual_used.max_utilization(overloaded.capacity) >
          overload_threshold &&
      plan.empty()) {
    return {};  // nothing helped; don't thrash
  }
  return plan;
}

std::vector<RelocationMove> plan_underload_relocation(const LcInfo& underloaded,
                                                      const std::vector<VmLoad>& vms,
                                                      const std::vector<LcInfo>& other_lcs,
                                                      double underload_threshold,
                                                      double overload_threshold) {
  std::vector<RelocationMove> plan;
  if (vms.empty()) return plan;

  auto targets = sorted_targets(other_lcs);
  // Prefer *moderately* loaded targets: drop peers that are themselves
  // underloaded (packing onto them would just move the problem) unless
  // nothing else exists.
  std::vector<Target> moderate;
  for (const Target& t : targets) {
    if (t.info.utilization() > underload_threshold) moderate.push_back(t);
  }
  if (moderate.empty()) moderate = targets;
  // Fill the most-loaded moderate target first to concentrate VMs.
  std::stable_sort(moderate.begin(), moderate.end(), [](const Target& a, const Target& b) {
    return a.info.utilization() > b.info.utilization();
  });

  std::vector<VmLoad> ordered = vms;
  std::stable_sort(ordered.begin(), ordered.end(), [](const VmLoad& a, const VmLoad& b) {
    return a.estimated.l1_norm() > b.estimated.l1_norm();
  });

  std::vector<bool> receives(moderate.size(), false);
  for (const VmLoad& vm : ordered) {
    bool placed = false;
    for (std::size_t i = 0; i < moderate.size(); ++i) {
      Target& t = moderate[i];
      if (t.info.lc == underloaded.lc) continue;
      if (!t.info.fits(vm.requested)) continue;
      if (would_overload(t, vm.estimated, overload_threshold)) continue;
      plan.push_back(RelocationMove{vm.vm, underloaded.lc, t.info.lc});
      t.info.reserved += vm.requested;
      t.info.estimated_used += vm.estimated;
      t.info.vm_count += 1;
      receives[i] = true;
      placed = true;
      break;
    }
    if (!placed) return {};  // full evacuation impossible -> do nothing
  }
  // Anti-ping-pong guard: the evacuation must leave every receiving target
  // genuinely non-underloaded, otherwise the same VMs would immediately
  // trigger the next underload event on their new home and bounce forever.
  for (std::size_t i = 0; i < moderate.size(); ++i) {
    if (receives[i] &&
        moderate[i].info.utilization() <= underload_threshold) {
      return {};
    }
  }
  return plan;
}

}  // namespace snooze::core
