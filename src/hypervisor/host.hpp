// Physical host model: VM slots, reservation accounting, power state and
// energy metering. The Local Controller actor drives it with virtual-time
// stamps; the Host itself holds no reference to the simulation engine so it
// is equally usable from the standalone consolidation benchmarks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "energy/energy_meter.hpp"
#include "hypervisor/resources.hpp"
#include "hypervisor/vm.hpp"

namespace snooze::hypervisor {

struct HostSpec {
  std::string name = "host";
  ResourceVector capacity{1.0, 1.0, 1.0};
  energy::PowerModel power;
};

class Host {
 public:
  explicit Host(HostSpec spec, double start_time = 0.0);

  [[nodiscard]] const HostSpec& spec() const { return spec_; }
  [[nodiscard]] const ResourceVector& capacity() const { return spec_.capacity; }

  // --- VM management ------------------------------------------------------
  /// Reserved (requested) capacity of all hosted VMs.
  [[nodiscard]] ResourceVector reserved() const;

  /// Actual consumption at time t (sum of VM usage, trace-driven).
  [[nodiscard]] ResourceVector used(double t) const;

  /// Bottleneck-dimension utilization of actual usage at time t, in [0,1+].
  [[nodiscard]] double utilization(double t) const;

  /// True if a VM with demand `requested` fits next to the current VMs.
  [[nodiscard]] bool can_place(const ResourceVector& requested) const;

  /// Add a VM in kRunning (caller checked can_place, asserts otherwise in
  /// debug).
  Vm& place(VmSpec spec, UtilizationFn utilization = nullptr);

  /// Remove and return the VM (nullptr if unknown).
  std::unique_ptr<Vm> evict(VmId id);

  /// Move a hosted VM to `state`. A VM's state changes only here (and in
  /// place()), so change_count() sees every move.
  void set_state(Vm& vm, VmState state);

  /// Changes so far: each place(), each evict() that removed a VM and each
  /// set_state() adds one. An observer that saw the same count before has
  /// nothing new to read on this host.
  [[nodiscard]] std::uint64_t change_count() const { return changes_; }

  [[nodiscard]] Vm* find(VmId id);
  [[nodiscard]] const Vm* find(VmId id) const;
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  [[nodiscard]] bool idle() const { return vms_.empty(); }
  [[nodiscard]] std::vector<VmId> vm_ids() const;
  [[nodiscard]] const std::map<VmId, std::unique_ptr<Vm>>& vms() const { return vms_; }

  // --- power --------------------------------------------------------------
  [[nodiscard]] energy::PowerState power_state() const { return meter_.state(); }
  void set_power_state(double t, energy::PowerState state);

  /// Refresh the energy meter with the utilization at time t (call on any
  /// change and periodically for trace-driven drift).
  void touch(double t);

  [[nodiscard]] double energy_joules(double t) const { return meter_.joules(t); }
  [[nodiscard]] const energy::EnergyMeter& meter() const { return meter_; }

 private:
  HostSpec spec_;
  std::map<VmId, std::unique_ptr<Vm>> vms_;
  energy::EnergyMeter meter_;
  VmId next_local_id_ = 1;
  std::uint64_t changes_ = 0;
};

}  // namespace snooze::hypervisor
