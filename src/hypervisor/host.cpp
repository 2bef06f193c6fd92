#include "hypervisor/host.hpp"

#include <algorithm>
#include <cassert>

namespace snooze::hypervisor {

Host::Host(HostSpec spec, double start_time)
    : spec_(std::move(spec)), meter_(spec_.power, start_time) {}

ResourceVector Host::reserved() const {
  ResourceVector total;
  for (const auto& [id, vm] : vms_) total += vm->spec().requested;
  return total;
}

ResourceVector Host::used(double t) const {
  ResourceVector total;
  for (const auto& [id, vm] : vms_) total += vm->used(t);
  return total;
}

double Host::utilization(double t) const {
  return used(t).max_utilization(spec_.capacity);
}

bool Host::can_place(const ResourceVector& requested) const {
  return (reserved() + requested).fits_within(spec_.capacity);
}

Vm& Host::place(VmSpec spec, UtilizationFn utilization) {
  assert(can_place(spec.requested));
  if (spec.id == kNullVm) spec.id = next_local_id_++;
  auto vm = std::make_unique<Vm>(spec, std::move(utilization));
  vm->set_state(VmState::kRunning);
  Vm& ref = *vm;
  vms_[spec.id] = std::move(vm);
  ++changes_;
  return ref;
}

std::unique_ptr<Vm> Host::evict(VmId id) {
  const auto it = vms_.find(id);
  if (it == vms_.end()) return nullptr;
  std::unique_ptr<Vm> vm = std::move(it->second);
  vms_.erase(it);
  ++changes_;
  return vm;
}

void Host::set_state(Vm& vm, VmState state) {
  assert(find(vm.id()) == &vm);
  vm.set_state(state);
  ++changes_;
}

Vm* Host::find(VmId id) {
  const auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : it->second.get();
}

const Vm* Host::find(VmId id) const {
  const auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : it->second.get();
}

std::vector<VmId> Host::vm_ids() const {
  std::vector<VmId> out;
  out.reserve(vms_.size());
  for (const auto& [id, vm] : vms_) out.push_back(id);
  return out;
}

void Host::set_power_state(double t, energy::PowerState state) {
  const double cpu = used(t).cpu() / std::max(1e-9, spec_.capacity.cpu());
  meter_.update(t, state, cpu);
}

void Host::touch(double t) { set_power_state(t, meter_.state()); }

}  // namespace snooze::hypervisor
