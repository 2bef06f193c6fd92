#include "consolidation/instance.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace snooze::consolidation {

Instance Instance::homogeneous(std::vector<ResourceVector> demands, std::size_t hosts,
                               ResourceVector capacity) {
  Instance inst;
  inst.vm_demands = std::move(demands);
  inst.host_capacities.assign(hosts, capacity);
  return inst;
}

std::size_t Instance::lower_bound_hosts() const {
  if (vm_demands.empty()) return 0;
  ResourceVector total;
  for (const auto& d : vm_demands) total += d;
  ResourceVector biggest;
  for (const auto& c : host_capacities) {
    for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
      biggest[d] = std::max(biggest[d], c[d]);
    }
  }
  std::size_t bound = 1;
  for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
    if (biggest[d] <= 0.0) continue;
    bound = std::max(bound,
                     static_cast<std::size_t>(std::ceil(total[d] / biggest[d] - 1e-9)));
  }
  return bound;
}

bool Placement::complete() const {
  return std::none_of(assignment_.begin(), assignment_.end(),
                      [](HostIndex h) { return h == kUnassigned; });
}

std::size_t Placement::hosts_used() const {
  std::set<HostIndex> used;
  for (HostIndex h : assignment_) {
    if (h != kUnassigned) used.insert(h);
  }
  return used.size();
}

std::vector<ResourceVector> Placement::loads(const Instance& instance) const {
  std::vector<ResourceVector> out(instance.host_count());
  for (std::size_t vm = 0; vm < assignment_.size(); ++vm) {
    const HostIndex h = assignment_[vm];
    if (h != kUnassigned) out[static_cast<std::size_t>(h)] += instance.vm_demands[vm];
  }
  return out;
}

bool Placement::feasible(const Instance& instance) const {
  if (assignment_.size() != instance.vm_count()) return false;
  if (!complete()) return false;
  for (HostIndex h : assignment_) {
    if (h < 0 || static_cast<std::size_t>(h) >= instance.host_count()) return false;
  }
  const auto host_loads = loads(instance);
  for (std::size_t h = 0; h < host_loads.size(); ++h) {
    if (!host_loads[h].fits_within(instance.host_capacities[h])) return false;
  }
  return true;
}

}  // namespace snooze::consolidation
