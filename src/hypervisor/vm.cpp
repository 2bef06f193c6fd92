#include "hypervisor/vm.hpp"

#include <algorithm>

namespace snooze::hypervisor {

Vm::Vm(VmSpec spec, UtilizationFn utilization)
    : spec_(spec), utilization_(std::move(utilization)) {}

double Vm::utilization(double t) const {
  if (!utilization_) return 1.0;
  if (t != read_at_) {
    read_value_ = std::clamp(utilization_(t), 0.0, 1.0);
    read_at_ = t;
  }
  return read_value_;
}

ResourceVector Vm::used(double t) const { return spec_.requested.scaled(utilization(t)); }

}  // namespace snooze::hypervisor
