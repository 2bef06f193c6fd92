// Tests for the hypervisor substrate: resource vectors, VM model, host
// reservation accounting, the live-migration cost model, and the power /
// energy metering layer.
#include <gtest/gtest.h>

#include <cmath>

#include "energy/energy_meter.hpp"
#include "hypervisor/host.hpp"
#include "hypervisor/migration.hpp"
#include "hypervisor/resources.hpp"
#include "hypervisor/vm.hpp"

namespace {

using namespace snooze;
using hypervisor::ResourceVector;

// --- ResourceVector ---------------------------------------------------------

TEST(ResourceVector, DefaultIsZero) {
  ResourceVector v;
  EXPECT_DOUBLE_EQ(v.cpu(), 0.0);
  EXPECT_DOUBLE_EQ(v.memory(), 0.0);
  EXPECT_DOUBLE_EQ(v.network(), 0.0);
}

TEST(ResourceVector, Arithmetic) {
  const ResourceVector a{0.1, 0.2, 0.3};
  const ResourceVector b{0.4, 0.1, 0.2};
  const ResourceVector sum = a + b;
  EXPECT_DOUBLE_EQ(sum.cpu(), 0.5);
  EXPECT_DOUBLE_EQ(sum.memory(), 0.3);
  EXPECT_DOUBLE_EQ(sum.network(), 0.5);
  const ResourceVector diff = sum - b;
  EXPECT_NEAR(diff.cpu(), a.cpu(), 1e-12);
}

TEST(ResourceVector, ScaledMultipliesAllDims) {
  const ResourceVector v{0.2, 0.4, 0.6};
  const ResourceVector s = v.scaled(0.5);
  EXPECT_DOUBLE_EQ(s.cpu(), 0.1);
  EXPECT_DOUBLE_EQ(s.memory(), 0.2);
  EXPECT_DOUBLE_EQ(s.network(), 0.3);
}

TEST(ResourceVector, FitsWithinChecksEveryDimension) {
  const ResourceVector cap{1.0, 1.0, 1.0};
  EXPECT_TRUE((ResourceVector{1.0, 0.5, 0.5}).fits_within(cap));
  EXPECT_FALSE((ResourceVector{1.1, 0.5, 0.5}).fits_within(cap));
  EXPECT_FALSE((ResourceVector{0.5, 0.5, 1.0001}).fits_within(cap));
}

TEST(ResourceVector, FitsWithinToleratesFpNoise) {
  const ResourceVector cap{0.3, 0.3, 0.3};
  // 0.1+0.1+0.1 > 0.3 in doubles by ~5.5e-17; must still "fit".
  const ResourceVector v = ResourceVector{0.1, 0.1, 0.1} + ResourceVector{0.1, 0.1, 0.1} +
                           ResourceVector{0.1, 0.1, 0.1};
  EXPECT_TRUE(v.fits_within(cap));
}

TEST(ResourceVector, Norms) {
  const ResourceVector v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(v.l1_norm(), 7.0);
  EXPECT_DOUBLE_EQ(v.l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.max_component(), 4.0);
}

TEST(ResourceVector, DotProduct) {
  const ResourceVector a{1.0, 2.0, 3.0};
  const ResourceVector b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(ResourceVector, MaxUtilizationPicksBottleneck) {
  const ResourceVector cap{1.0, 2.0, 4.0};
  const ResourceVector used{0.5, 1.5, 1.0};
  EXPECT_DOUBLE_EQ(used.max_utilization(cap), 0.75);  // memory is the bottleneck
}

TEST(ResourceVector, AnyNegative) {
  EXPECT_FALSE((ResourceVector{0.0, 0.0, 0.0}).any_negative());
  EXPECT_TRUE((ResourceVector{0.1, -0.1, 0.0}).any_negative());
}

// --- Vm -----------------------------------------------------------------------

TEST(Vm, UsedScalesWithUtilization) {
  hypervisor::VmSpec spec;
  spec.id = 1;
  spec.requested = {0.4, 0.2, 0.1};
  hypervisor::Vm vm(spec, [](double t) { return t < 10.0 ? 0.5 : 1.0; });
  EXPECT_DOUBLE_EQ(vm.used(0.0).cpu(), 0.2);
  EXPECT_DOUBLE_EQ(vm.used(20.0).cpu(), 0.4);
  // The Vm remembers only the last instant it read: a repeat read there and
  // a read back at an earlier instant both follow the trace.
  EXPECT_DOUBLE_EQ(vm.used(20.0).cpu(), 0.4);
  EXPECT_DOUBLE_EQ(vm.used(0.0).cpu(), 0.2);
}

TEST(Vm, NoTraceMeansFullUtilization) {
  hypervisor::VmSpec spec;
  spec.requested = {0.4, 0.2, 0.1};
  hypervisor::Vm vm(spec);
  EXPECT_DOUBLE_EQ(vm.utilization(123.0), 1.0);
}

TEST(Vm, UtilizationClampedToUnitInterval) {
  hypervisor::VmSpec spec;
  hypervisor::Vm above(spec, [](double) { return 1.7; });
  EXPECT_DOUBLE_EQ(above.utilization(0.0), 1.0);
  hypervisor::Vm below(spec, [](double) { return -0.3; });
  EXPECT_DOUBLE_EQ(below.utilization(0.0), 0.0);
}

// --- Host ---------------------------------------------------------------------

hypervisor::HostSpec host_spec() {
  hypervisor::HostSpec spec;
  spec.capacity = {1.0, 1.0, 1.0};
  return spec;
}

TEST(Host, PlaceReservesCapacity) {
  hypervisor::Host host(host_spec());
  hypervisor::VmSpec vm;
  vm.id = 1;
  vm.requested = {0.6, 0.3, 0.2};
  host.place(vm);
  EXPECT_DOUBLE_EQ(host.reserved().cpu(), 0.6);
  EXPECT_TRUE(host.can_place(ResourceVector{0.4, 0.4, 0.4}));
  EXPECT_FALSE(host.can_place(ResourceVector{0.5, 0.1, 0.1}));
}

TEST(Host, EvictReleasesCapacity) {
  hypervisor::Host host(host_spec());
  hypervisor::VmSpec vm;
  vm.id = 1;
  vm.requested = {0.6, 0.3, 0.2};
  host.place(vm);
  auto evicted = host.evict(1);
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(evicted->id(), 1u);
  EXPECT_TRUE(host.idle());
  EXPECT_DOUBLE_EQ(host.reserved().cpu(), 0.0);
}

TEST(Host, EvictUnknownReturnsNull) {
  hypervisor::Host host(host_spec());
  EXPECT_EQ(host.evict(99), nullptr);
}

TEST(Host, UsedTracksTraces) {
  hypervisor::Host host(host_spec());
  hypervisor::VmSpec vm;
  vm.id = 1;
  vm.requested = {0.8, 0.4, 0.4};
  host.place(vm, [](double) { return 0.5; });
  EXPECT_DOUBLE_EQ(host.used(0.0).cpu(), 0.4);
  EXPECT_DOUBLE_EQ(host.utilization(0.0), 0.4);  // cpu is the bottleneck
}

TEST(Host, FindLocatesVm) {
  hypervisor::Host host(host_spec());
  hypervisor::VmSpec vm;
  vm.id = 7;
  vm.requested = {0.1, 0.1, 0.1};
  host.place(vm);
  EXPECT_NE(host.find(7), nullptr);
  EXPECT_EQ(host.find(8), nullptr);
  EXPECT_EQ(host.vm_ids(), (std::vector<hypervisor::VmId>{7}));
}

// Observers skip a host whose change count they have seen, so every change
// to the hosted set or a VM's state must move it, and reads must not.
TEST(Host, ChangeCountMovesOnPlaceEvictAndStateMove) {
  hypervisor::Host host(host_spec());
  EXPECT_EQ(host.change_count(), 0u);
  hypervisor::VmSpec spec;
  spec.id = 3;
  spec.requested = {0.2, 0.2, 0.2};
  hypervisor::Vm& vm = host.place(spec, [](double) { return 0.5; });
  EXPECT_EQ(vm.state(), hypervisor::VmState::kRunning);
  EXPECT_EQ(host.change_count(), 1u);

  host.set_state(vm, hypervisor::VmState::kMigrating);
  EXPECT_EQ(vm.state(), hypervisor::VmState::kMigrating);
  EXPECT_EQ(host.change_count(), 2u);

  // Reads and the energy meter's refresh change nothing hosted.
  EXPECT_NE(host.find(3), nullptr);
  EXPECT_EQ(host.vms().size(), 1u);
  EXPECT_DOUBLE_EQ(host.used(1.0).cpu(), 0.1);
  host.touch(1.0);
  EXPECT_EQ(host.change_count(), 2u);

  EXPECT_EQ(host.evict(99), nullptr);  // nothing hosted under that id
  EXPECT_EQ(host.change_count(), 2u);
  EXPECT_NE(host.evict(3), nullptr);
  EXPECT_EQ(host.change_count(), 3u);
}

// --- Migration model -------------------------------------------------------------

TEST(Migration, ZeroDirtyRateIsSinglePass) {
  hypervisor::MigrationModel model;
  model.bandwidth_mbps = 8000.0;  // 1000 MB/s
  const auto cost = model.cost(2048.0, 0.0);
  EXPECT_EQ(cost.rounds, 1u);
  EXPECT_NEAR(cost.total_s, 2048.0 / 1000.0, 1e-6);
  EXPECT_NEAR(cost.downtime_s, 0.0, 1e-6);
}

TEST(Migration, DirtyPagesAddRounds) {
  hypervisor::MigrationModel model;
  model.bandwidth_mbps = 8000.0;
  const auto with_dirty = model.cost(2048.0, 800.0);
  const auto without = model.cost(2048.0, 0.0);
  EXPECT_GT(with_dirty.rounds, without.rounds);
  EXPECT_GT(with_dirty.total_s, without.total_s);
  EXPECT_GT(with_dirty.transferred_mb, 2048.0);
}

TEST(Migration, DowntimeBoundedByThreshold) {
  hypervisor::MigrationModel model;
  model.bandwidth_mbps = 8000.0;
  model.stop_copy_threshold_mb = 64.0;
  const auto cost = model.cost(4096.0, 400.0);
  // Residual at stop-and-copy is at most ~threshold (plus one round of dirt).
  EXPECT_LT(cost.downtime_s, 0.2);
}

TEST(Migration, NonConvergentDirtyRateStillTerminates) {
  hypervisor::MigrationModel model;
  model.bandwidth_mbps = 800.0;  // 100 MB/s
  // Dirty rate equals bandwidth: pre-copy can never converge.
  const auto cost = model.cost(2048.0, 800.0);
  EXPECT_LE(cost.rounds, model.max_rounds);
  EXPECT_GT(cost.downtime_s, 0.0);
  EXPECT_TRUE(std::isfinite(cost.total_s));
}

TEST(Migration, BiggerVmTakesLonger) {
  hypervisor::MigrationModel model;
  EXPECT_GT(model.cost(8192.0, 100.0).total_s, model.cost(1024.0, 100.0).total_s);
}

// --- Power / energy ---------------------------------------------------------------

TEST(PowerModel, LinearInterpolation) {
  energy::PowerModel pm;
  pm.p_idle_w = 100.0;
  pm.p_max_w = 200.0;
  EXPECT_DOUBLE_EQ(pm.power_on(0.0), 100.0);
  EXPECT_DOUBLE_EQ(pm.power_on(1.0), 200.0);
  EXPECT_DOUBLE_EQ(pm.power_on(0.5), 150.0);
  EXPECT_DOUBLE_EQ(pm.power_on(2.0), 200.0);  // clamped
}

TEST(PowerModel, StatePowers) {
  energy::PowerModel pm;
  EXPECT_DOUBLE_EQ(pm.power(energy::PowerState::kSuspended, 0.9), pm.p_suspend_w);
  EXPECT_DOUBLE_EQ(pm.power(energy::PowerState::kOff, 0.9), pm.p_off_w);
  EXPECT_DOUBLE_EQ(pm.power(energy::PowerState::kSuspending, 0.0), pm.p_idle_w);
}

TEST(EnergyMeter, IntegratesIdleDraw) {
  energy::PowerModel pm;
  pm.p_idle_w = 100.0;
  energy::EnergyMeter meter(pm, 0.0);
  EXPECT_DOUBLE_EQ(meter.joules(10.0), 1000.0);
}

TEST(EnergyMeter, SuspendReducesDraw) {
  energy::PowerModel pm;
  pm.p_idle_w = 100.0;
  pm.p_suspend_w = 5.0;
  energy::EnergyMeter meter(pm, 0.0);
  meter.update(10.0, energy::PowerState::kSuspended, 0.0);
  // 100 W for 10 s, then 5 W for 10 s.
  EXPECT_DOUBLE_EQ(meter.joules(20.0), 1000.0 + 50.0);
  EXPECT_DOUBLE_EQ(meter.average_watts(20.0), 52.5);
}

TEST(EnergyMeter, UtilizationRaisesDraw) {
  energy::PowerModel pm;
  pm.p_idle_w = 100.0;
  pm.p_max_w = 200.0;
  energy::EnergyMeter meter(pm, 0.0);
  meter.update(0.0, energy::PowerState::kOn, 1.0);
  EXPECT_DOUBLE_EQ(meter.joules(10.0), 2000.0);
}

TEST(Host, EnergyMeterFollowsPowerState) {
  hypervisor::HostSpec spec = host_spec();
  spec.power.p_idle_w = 100.0;
  spec.power.p_suspend_w = 10.0;
  hypervisor::Host host(spec, 0.0);
  host.set_power_state(5.0, energy::PowerState::kSuspended);
  EXPECT_DOUBLE_EQ(host.energy_joules(10.0), 500.0 + 50.0);
  EXPECT_EQ(host.power_state(), energy::PowerState::kSuspended);
}

TEST(ComputationEnergy, JoulesIsPowerTimesTime) {
  energy::ComputationEnergy ce{2.5, 171.0};
  EXPECT_DOUBLE_EQ(ce.joules(), 427.5);
}

}  // namespace
