// Integration tests over complete simulated Snooze deployments: hierarchy
// self-organization, the full VM submission path, failure recovery at every
// level (GL, GM, LC — paper §II.E), relocation, energy management and
// periodic ACO reconfiguration.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/snooze.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;
using hypervisor::ResourceVector;

SystemSpec small_spec(std::size_t gms = 2, std::size_t lcs = 8) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = gms;
  spec.local_controllers = lcs;
  spec.seed = 42;
  return spec;
}

TraceSpec constant_trace(double value) {
  TraceSpec t;
  t.kind = TraceSpec::Kind::kConstant;
  t.a = value;
  return t;
}

// --- Self-organization ------------------------------------------------------------

TEST(SystemBoot, HierarchyStabilizes) {
  SnoozeSystem system(small_spec());
  system.start();
  EXPECT_TRUE(system.run_until_stable(60.0));
  EXPECT_NE(system.leader(), nullptr);
  EXPECT_EQ(system.assigned_lc_count(), 8u);
}

TEST(SystemBoot, ExactlyOneLeader) {
  SnoozeSystem system(small_spec(4, 12));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  int leaders = 0;
  for (const auto& gm : system.group_managers()) {
    if (gm->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(SystemBoot, LeaderManagesNoLcs) {
  SnoozeSystem system(small_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  EXPECT_EQ(system.leader()->lc_count(), 0u);  // dedicated roles
}

TEST(SystemBoot, LcsSpreadAcrossGms) {
  SnoozeSystem system(small_spec(3, 12));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // Round-robin assignment over the two non-leader GMs: 6 LCs each.
  for (const auto& gm : system.group_managers()) {
    if (gm->is_leader()) continue;
    EXPECT_EQ(gm->lc_count(), 6u);
  }
}

TEST(SystemBoot, EntryPointsLearnTheGl) {
  SnoozeSystem system(small_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  for (const auto& ep : system.entry_points()) {
    EXPECT_EQ(ep->known_gl(), system.gl_address());
  }
}

TEST(SystemBoot, SingleGmDeploymentCannotPlaceLcs) {
  // With one GM it must become GL, and a GL manages no LCs: the LCs keep
  // retrying (degenerate deployment, documented behaviour).
  SnoozeSystem system(small_spec(1, 4));
  system.start();
  EXPECT_FALSE(system.run_until_stable(20.0));
  EXPECT_NE(system.leader(), nullptr);
  EXPECT_EQ(system.assigned_lc_count(), 0u);
}

TEST(SystemBoot, HierarchyDumpMentionsComponents) {
  SnoozeSystem system(small_spec());
  system.start();
  system.run_until_stable(60.0);
  const std::string dump = system.hierarchy_dump();
  EXPECT_NE(dump.find("GL:"), std::string::npos);
  EXPECT_NE(dump.find("LCs: 8"), std::string::npos);
}

// --- VM submission path ------------------------------------------------------------

class SubmissionTest : public testing::Test {
 protected:
  void boot(SystemSpec spec) {
    system = std::make_unique<SnoozeSystem>(spec);
    system->start();
    ASSERT_TRUE(system->run_until_stable(60.0));
  }
  void submit_and_run(std::size_t n, double size = 0.125, double lifetime = 0.0) {
    std::vector<VmDescriptor> vms;
    for (std::size_t i = 0; i < n; ++i) {
      vms.push_back(system->make_vm(ResourceVector{size, size, size}, lifetime,
                                    constant_trace(0.8)));
    }
    system->client().submit_all(vms, 0.2);
    system->engine().run_until(system->engine().now() + 60.0);
  }
  std::unique_ptr<SnoozeSystem> system;
};

TEST_F(SubmissionTest, AllVmsPlaced) {
  boot(small_spec());
  submit_and_run(12);
  EXPECT_EQ(system->client().succeeded(), 12u);
  EXPECT_EQ(system->client().failed(), 0u);
  EXPECT_EQ(system->running_vm_count(), 12u);
}

TEST_F(SubmissionTest, SubmissionLatencyIncludesBoot) {
  boot(small_spec());
  submit_and_run(4);
  const auto& latency = system->telemetry().metrics().histogram("client.submit_latency");
  ASSERT_GT(latency.count(), 0u);
  // End-to-end latency must at least cover the 2 s VM boot time.
  EXPECT_GE(latency.min(), kVmBootTime);
  EXPECT_LT(latency.max(), 10.0);
}

TEST_F(SubmissionTest, OverCapacitySubmissionsFailGracefully) {
  boot(small_spec(2, 2));  // two LCs: capacity for 2 full-size VMs
  submit_and_run(4, /*size=*/0.9);
  EXPECT_EQ(system->client().succeeded(), 2u);
  EXPECT_EQ(system->client().failed(), 2u);
  EXPECT_EQ(system->running_vm_count(), 2u);
}

TEST_F(SubmissionTest, FiniteLifetimeVmsTerminate) {
  boot(small_spec());
  submit_and_run(6, 0.125, /*lifetime=*/10.0);
  EXPECT_EQ(system->client().succeeded(), 6u);
  EXPECT_EQ(system->running_vm_count(), 0u);  // all expired within the run
}

TEST_F(SubmissionTest, GmRecordsMatchLcReality) {
  boot(small_spec());
  submit_and_run(10);
  std::size_t gm_view = 0;
  for (const auto& gm : system->group_managers()) {
    if (gm->alive() && !gm->is_leader()) gm_view += gm->vm_count();
  }
  EXPECT_EQ(gm_view, system->running_vm_count());
}

TEST_F(SubmissionTest, WorkAccruesWhileVmsRun) {
  boot(small_spec());
  const double before = system->total_work();
  submit_and_run(5);
  EXPECT_GT(system->total_work(), before);
}

// --- Fault tolerance (paper §II.E) ---------------------------------------------------

TEST(FaultTolerance, GlFailoverElectsNewLeader) {
  SnoozeSystem system(small_spec(3, 9));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  const net::Address old_gl = system.gl_address();
  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 40.0);
  ASSERT_NE(system.leader(), nullptr);
  EXPECT_NE(system.gl_address(), old_gl);
}

TEST(FaultTolerance, HierarchyReformsAfterGlFailure) {
  SnoozeSystem system(small_spec(3, 9));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.fail_gl();
  // The promoted GM resigns its LCs; everyone rejoins the new hierarchy.
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 60.0));
  EXPECT_EQ(system.assigned_lc_count(), 9u);
}

TEST(FaultTolerance, RunningVmsSurviveGlFailure) {
  SnoozeSystem system(small_spec(3, 9));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);
  ASSERT_EQ(system.running_vm_count(), 6u);
  system.fail_gl();
  system.engine().run_until(system.engine().now() + 60.0);
  // Management-layer failure never touches the data plane.
  EXPECT_EQ(system.running_vm_count(), 6u);
}

TEST(FaultTolerance, GmFailureReassignsItsLcs) {
  SnoozeSystem system(small_spec(3, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // Fail a non-leader GM.
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (!system.group_managers()[i]->is_leader()) {
      system.fail_gm(i);
      break;
    }
  }
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 60.0));
  EXPECT_EQ(system.assigned_lc_count(), 8u);
}

TEST(FaultTolerance, GlDetectsGmFailure) {
  SnoozeSystem system(small_spec(3, 6));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* gl = system.leader();
  const std::size_t before = gl->known_gm_count();
  ASSERT_EQ(before, 2u);
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (!system.group_managers()[i]->is_leader()) {
      system.fail_gm(i);
      break;
    }
  }
  system.engine().run_until(system.engine().now() + 30.0);
  EXPECT_EQ(gl->known_gm_count(), 1u);
  const auto failed = system.trace().of_kind("gl.gm_failed");
  EXPECT_GE(std::count_if(failed.begin(), failed.end(),
                          [&](const auto& r) { return r.actor == gl->name(); }),
            1);
}

TEST(FaultTolerance, LcFailureDetectedAndVmsLost) {
  SystemSpec spec = small_spec();
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);
  ASSERT_EQ(system.running_vm_count(), 8u);

  // Find an LC hosting at least one VM and crash it.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < system.local_controllers().size(); ++i) {
    if (system.local_controllers()[i]->vm_count() > 0) {
      victim = i;
      break;
    }
  }
  const std::size_t lost = system.local_controllers()[victim]->vm_count();
  system.fail_lc(victim);
  system.engine().run_until(system.engine().now() + 30.0);
  // Without snapshot recovery the VMs are gone (paper: "VMs are terminated").
  EXPECT_EQ(system.running_vm_count(), 8u - lost);
  const std::uint64_t detected =
      system.telemetry().metrics().value("gm.lc_failures_detected");
  EXPECT_GE(detected, 1u);
}

TEST(FaultTolerance, SnapshotRecoveryReschedulesVms) {
  SystemSpec spec = small_spec();
  spec.config.reschedule_failed_vms = true;  // the optional §II.E feature
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 8; ++i) {
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);
  ASSERT_EQ(system.running_vm_count(), 8u);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < system.local_controllers().size(); ++i) {
    if (system.local_controllers()[i]->vm_count() > 0) {
      victim = i;
      break;
    }
  }
  system.fail_lc(victim);
  system.engine().run_until(system.engine().now() + 60.0);
  // The GM rescheduled the lost VMs onto its surviving LCs.
  EXPECT_EQ(system.running_vm_count(), 8u);
}

TEST(FaultTolerance, RestartedLcRejoins) {
  SnoozeSystem system(small_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.fail_lc(0);
  system.engine().run_until(system.engine().now() + 20.0);
  EXPECT_EQ(system.assigned_lc_count(), 7u);
  system.local_controllers()[0]->restart();
  // Boot latency (90 s) plus rejoin.
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 150.0));
  EXPECT_EQ(system.assigned_lc_count(), 8u);
}

TEST(FaultTolerance, SubmissionsWorkAfterFailover) {
  SnoozeSystem system(small_spec(3, 9));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.fail_gl();
  system.engine().run_until(system.engine().now() + 40.0);
  ASSERT_TRUE(system.run_until_stable(system.engine().now() + 60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, constant_trace(0.8)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 4u);
}

// --- Relocation -------------------------------------------------------------------------

TEST(Relocation, OverloadTriggersMigration) {
  SystemSpec spec = small_spec(2, 4);
  spec.config.overload_threshold = 0.6;
  spec.config.placement_policy = PlacementPolicyKind::kFirstFit;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // Three VMs whose *reservation* is modest but whose usage ramps to 0.9:
  // first-fit stacks them on one LC, which then overloads.
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 3; ++i) {
    TraceSpec ramp;
    ramp.kind = TraceSpec::Kind::kConstant;
    ramp.a = 0.95;
    vms.push_back(system.make_vm({0.3, 0.3, 0.3}, 0.0, ramp));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_GE(system.telemetry().metrics().value("gm.overload_events"), 1u);
  EXPECT_GE(system.telemetry().metrics().value("gm.migrations_completed"), 1u);
  EXPECT_EQ(system.running_vm_count(), 3u);  // nothing lost in flight
}

TEST(Relocation, UnderloadEvacuatesColdNode) {
  SystemSpec spec = small_spec(2, 4);
  spec.config.underload_threshold = 0.25;
  spec.config.overload_threshold = 0.95;
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // Round-robin spreads VMs thinly: each LC ends up underloaded and the GM
  // consolidates them onto fewer nodes.
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.3, 0.3, 0.3}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 180.0);
  const std::uint64_t underloads =
      system.telemetry().metrics().value("gm.underload_events");
  EXPECT_GE(underloads, 1u);
  EXPECT_EQ(system.running_vm_count(), 4u);
}

// --- Energy management ---------------------------------------------------------------------

TEST(Energy, IdleLcsSuspendAfterThreshold) {
  SystemSpec spec = small_spec(2, 6);
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 20.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.engine().run_until(system.engine().now() + 120.0);
  // No VMs anywhere: every LC is idle and must be suspended.
  EXPECT_EQ(system.suspended_lc_count(), 6u);
}

TEST(Energy, SuspendedNodesAreWokenForPlacement) {
  SystemSpec spec = small_spec(2, 4);
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 15.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.engine().run_until(system.engine().now() + 90.0);
  ASSERT_EQ(system.suspended_lc_count(), 4u);
  // Submit: the GM must wake a node to host the VM.
  std::vector<VmDescriptor> vms{system.make_vm({0.25, 0.25, 0.25}, 0.0,
                                               constant_trace(0.8))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 1u);
  EXPECT_EQ(system.running_vm_count(), 1u);
  EXPECT_EQ(system.suspended_lc_count(), 3u);
  const std::uint64_t wakeups = system.telemetry().metrics().value("gm.wakeups");
  EXPECT_GE(wakeups, 1u);
}

TEST(Energy, SuspensionSavesEnergyVersusBaseline) {
  auto run = [](bool energy_savings) {
    SystemSpec spec = small_spec(2, 6);
    spec.config.energy_savings = energy_savings;
    spec.config.idle_threshold = 10.0;
    SnoozeSystem system(spec);
    system.start();
    system.run_until_stable(60.0);
    system.engine().run_until(600.0);
    return system.total_energy();
  };
  const double with_savings = run(true);
  const double without = run(false);
  EXPECT_LT(with_savings, 0.5 * without);  // suspend draws ~5% of idle
}

// --- Reconfiguration (periodic ACO consolidation) ----------------------------------------------

TEST(Reconfiguration, AcoConsolidationPacksVms) {
  SystemSpec spec = small_spec(2, 6);
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;  // spread out
  spec.config.consolidation = ConsolidationKind::kAco;
  spec.config.reconfiguration_period = 60.0;
  spec.config.underload_threshold = 0.0;  // isolate the reconfiguration path
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.9)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 300.0);

  const std::uint64_t reconfigurations =
      system.telemetry().metrics().value("gm.reconfigurations");
  EXPECT_GE(reconfigurations, 1u);
  EXPECT_EQ(system.running_vm_count(), 6u);
  // 6 x 0.25 VMs fit on 2 LCs; round-robin had spread them over ~6.
  std::size_t hosts_with_vms = 0;
  for (const auto& lc : system.local_controllers()) {
    if (lc->vm_count() > 0) ++hosts_with_vms;
  }
  EXPECT_LE(hosts_with_vms, 3u);
}

TEST(Reconfiguration, ConsolidationPlusSuspendShutsDownFreedNodes) {
  SystemSpec spec = small_spec(2, 6);
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;
  spec.config.consolidation = ConsolidationKind::kAco;
  spec.config.reconfiguration_period = 60.0;
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 30.0;
  spec.config.underload_threshold = 0.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.9)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 400.0);
  EXPECT_EQ(system.running_vm_count(), 6u);
  EXPECT_GE(system.suspended_lc_count(), 3u);  // freed nodes powered down
}

// --- Monitoring / overhead ---------------------------------------------------------------------

TEST(Monitoring, ControlTrafficFlowsContinuously) {
  SnoozeSystem system(small_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  const net::TrafficStats before = system.network().stats();
  system.engine().run_until(system.engine().now() + 60.0);
  const net::TrafficStats after = system.network().stats();
  EXPECT_GT(after.messages_sent - before.messages_sent, 100u);  // heartbeats + monitoring
  EXPECT_GT(after.bytes_sent - before.bytes_sent, 10000u);
}

TEST(Monitoring, GmSummariesReachTheGl) {
  SnoozeSystem system(small_spec(3, 6));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.engine().run_until(system.engine().now() + 20.0);
  GroupManager* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  const auto infos = gl->gm_infos();
  ASSERT_EQ(infos.size(), 2u);
  for (const auto& info : infos) {
    EXPECT_DOUBLE_EQ(info.capacity.cpu(), 3.0);  // 3 LCs x 1.0 CPU each
    EXPECT_EQ(info.lc_count, 3u);
  }
}

}  // namespace
