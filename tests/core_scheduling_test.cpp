// Scheduling-path tests: the GL's candidate-list + linear-search dispatch
// across multiple GMs, placement under dynamic (trace-driven) load, and the
// interaction of overload relocation with time-varying utilization.
#include <gtest/gtest.h>

#include "core/snooze.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;

TraceSpec constant_trace(double v) {
  TraceSpec t;
  t.kind = TraceSpec::Kind::kConstant;
  t.a = v;
  return t;
}

TEST(Dispatch, LinearSearchFallsThroughToSecondGm) {
  // Two worker GMs with 2 LCs each. Fill GM A's LCs completely, then submit
  // more VMs: the GL's linear search must fail over to GM B.
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = 4;
  spec.seed = 42;
  spec.config.dispatch_policy = DispatchPolicyKind::kRoundRobin;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  // 4 x 0.9 VMs fill all four LCs (one each), regardless of which GM fields
  // the dispatch first — every submission must succeed even when the
  // round-robin GL first asks a GM whose LCs are already full.
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.9, 0.9, 0.9}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 3.0);  // spaced: summaries refresh between
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_EQ(system.client().succeeded(), 4u);
  EXPECT_EQ(system.running_vm_count(), 4u);
  // Every LC hosts exactly one VM.
  for (const auto& lc : system.local_controllers()) {
    EXPECT_EQ(lc->vm_count(), 1u) << lc->name();
  }
}

TEST(Dispatch, FailuresReportedWhenEveryGmIsFull) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = 2;
  spec.seed = 42;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(system.make_vm({0.9, 0.9, 0.9}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 3.0);
  system.engine().run_until(system.engine().now() + 200.0);
  EXPECT_EQ(system.client().succeeded(), 2u);
  EXPECT_EQ(system.client().failed(), 1u);
}

TEST(Relocation, RampingLoadTriggersOverloadAndRecovers) {
  // VMs whose utilization jumps from low to very high after placement: the
  // initial first-fit stacking becomes an overload that relocation resolves.
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 4;
  spec.seed = 42;
  spec.config.overload_threshold = 0.75;
  spec.config.underload_threshold = 0.05;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 3; ++i) {
    // On/off trace: near-idle half the time, saturated the other half, with
    // per-VM phase -> stacked VMs will overlap their busy phases eventually.
    TraceSpec t;
    t.kind = TraceSpec::Kind::kOnOff;
    t.a = 0.1;
    t.b = 1.0;
    t.c = 120.0;
    t.d = 0.6;
    t.seed = 100 + static_cast<std::uint64_t>(i);
    vms.push_back(system.make_vm({0.3, 0.3, 0.3}, 0.0, t));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 600.0);

  const std::uint64_t overloads = system.telemetry().metrics().value("gm.overload_events");
  EXPECT_GE(overloads, 1u);
  EXPECT_EQ(system.running_vm_count(), 3u);  // relocation never loses a VM
}

TEST(Placement, ReservationNotUtilizationGovernsAdmission) {
  // A host whose VMs are idle (low utilization) is still full by
  // reservation: a VM requesting more than the residual must be refused
  // there and go elsewhere.
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 2;
  spec.seed = 42;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> first{system.make_vm({0.8, 0.8, 0.8}, 0.0,
                                                 constant_trace(0.05))};
  system.client().submit_all(first, 0.0);
  system.engine().run_until(system.engine().now() + 30.0);
  ASSERT_EQ(system.running_vm_count(), 1u);
  std::vector<VmDescriptor> second{system.make_vm({0.5, 0.5, 0.5}, 0.0,
                                                  constant_trace(0.05))};
  system.client().submit_all(second, 0.0);
  system.engine().run_until(system.engine().now() + 30.0);
  ASSERT_EQ(system.running_vm_count(), 2u);
  // They must be on different LCs despite the first one being nearly idle.
  std::size_t hosts_with_vms = 0;
  for (const auto& lc : system.local_controllers()) {
    if (lc->vm_count() > 0) ++hosts_with_vms;
  }
  EXPECT_EQ(hosts_with_vms, 2u);
}

TEST(Placement, BestFitConsolidatesBetterThanRoundRobinLive) {
  auto hosts_used = [](PlacementPolicyKind kind) {
    SystemSpec spec;
    spec.entry_points = 2;
    spec.group_managers = 2;
    spec.local_controllers = 8;
    spec.seed = 42;
    spec.config.placement_policy = kind;
    spec.config.underload_threshold = 0.0;  // no relocation interference
    SnoozeSystem system(spec);
    system.start();
    system.run_until_stable(60.0);
    std::vector<VmDescriptor> vms;
    for (int i = 0; i < 8; ++i) {
      vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.5)));
    }
    system.client().submit_all(vms, 0.2);
    system.engine().run_until(system.engine().now() + 60.0);
    std::size_t used = 0;
    for (const auto& lc : system.local_controllers()) {
      if (lc->vm_count() > 0) ++used;
    }
    return used;
  };
  EXPECT_LT(hosts_used(PlacementPolicyKind::kBestFit),
            hosts_used(PlacementPolicyKind::kRoundRobin));
}

}  // namespace
