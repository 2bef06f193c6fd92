// Lifecycle and bookkeeping tests: monitoring fidelity, VM lifetimes,
// energy-manager guard rails, anomaly rate limiting, client behaviour, and
// whole-system determinism (identical runs from identical seeds).
#include <gtest/gtest.h>

#include "core/snooze.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;

SystemSpec spec_of(std::size_t gms, std::size_t lcs) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = gms;
  spec.local_controllers = lcs;
  spec.seed = 42;
  return spec;
}

TraceSpec constant_trace(double v) {
  TraceSpec t;
  t.kind = TraceSpec::Kind::kConstant;
  t.a = v;
  return t;
}

// --- Monitoring fidelity -----------------------------------------------------

TEST(Monitoring, GmViewMatchesLcGroundTruth) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 5; ++i) {
    vms.push_back(system.make_vm({0.2, 0.1, 0.15}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);

  GroupManager* worker = nullptr;
  for (auto& gm : system.group_managers()) {
    if (gm->alive() && !gm->is_leader()) worker = gm.get();
  }
  ASSERT_NE(worker, nullptr);
  for (const LcInfo& info : worker->lc_infos()) {
    const LocalController* lc = nullptr;
    for (const auto& candidate : system.local_controllers()) {
      if (candidate->address() == info.lc) lc = candidate.get();
    }
    ASSERT_NE(lc, nullptr);
    EXPECT_EQ(info.capacity, lc->host().capacity());
    EXPECT_EQ(info.reserved, lc->host().reserved());
    EXPECT_EQ(info.vm_count, lc->vm_count());
  }
}

TEST(Monitoring, GlSummaryReflectsPlacedVms) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(1.0)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);
  GroupManager* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  const auto infos = gl->gm_infos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].vm_count, 4u);
  EXPECT_NEAR(infos[0].used.cpu(), 1.0, 0.05);  // 4 x 0.25 requested, util 1.0
}

// --- VM lifetimes ----------------------------------------------------------------

TEST(Lifetime, GmRecordsShrinkWhenVmsExpire) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, /*lifetime=*/15.0,
                                 constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 10.0);
  std::size_t mid_run = 0;
  for (const auto& gm : system.group_managers()) mid_run += gm->vm_count();
  EXPECT_EQ(mid_run, 4u);
  system.engine().run_until(system.engine().now() + 60.0);
  std::size_t after = 0;
  for (const auto& gm : system.group_managers()) after += gm->vm_count();
  EXPECT_EQ(after, 0u);
  EXPECT_EQ(system.running_vm_count(), 0u);
  // Reserved capacity was released on every LC.
  for (const auto& lc : system.local_controllers()) {
    EXPECT_EQ(lc->host().reserved(), hypervisor::ResourceVector{});
  }
}

TEST(Lifetime, StaggeredLifetimesExpireIndependently) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 10.0, constant_trace(0.5)));
  vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 200.0, constant_trace(0.5)));
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.running_vm_count(), 1u);
}

// --- Energy-manager guard rails --------------------------------------------------

TEST(Energy, BusyLcsAreNeverSuspended) {
  SystemSpec spec = spec_of(2, 3);
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 5.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // One VM per LC (0.6 cannot share a host).
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(system.make_vm({0.6, 0.6, 0.6}, 0.0, constant_trace(0.9)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_EQ(system.running_vm_count(), 3u);
  EXPECT_EQ(system.suspended_lc_count(), 0u);
}

TEST(Energy, SuspendedLcIgnoresHeartbeatTimeouts) {
  SystemSpec spec = spec_of(2, 4);
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 10.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.engine().run_until(system.engine().now() + 120.0);
  ASSERT_EQ(system.suspended_lc_count(), 4u);
  // A suspended node sends no heartbeats; the GM must NOT declare it failed.
  const std::uint64_t failures =
      system.telemetry().metrics().value("gm.lc_failures_detected");
  EXPECT_EQ(failures, 0u);
}

TEST(Energy, EnergySavingsDisabledMeansNoSuspends) {
  SystemSpec spec = spec_of(2, 4);
  spec.config.energy_savings = false;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.engine().run_until(system.engine().now() + 300.0);
  EXPECT_EQ(system.suspended_lc_count(), 0u);
}

// --- Anomaly rate limiting ---------------------------------------------------------

TEST(Anomaly, OverloadEventsAreRateLimited) {
  SystemSpec spec = spec_of(2, 2);
  spec.config.overload_threshold = 0.5;
  spec.config.anomaly_check_period = 5.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  // A permanently overloaded LC (one big VM, nowhere to migrate it: the
  // other LC is equally sized but relocation would overload it too).
  std::vector<VmDescriptor> vms;
  vms.push_back(system.make_vm({0.9, 0.9, 0.9}, 0.0, constant_trace(1.0)));
  vms.push_back(system.make_vm({0.9, 0.9, 0.9}, 0.0, constant_trace(1.0)));
  system.client().submit_all(vms, 0.2);
  const double t0 = system.engine().now();
  system.engine().run_until(t0 + 100.0);
  const std::uint64_t overloads = system.telemetry().metrics().value("gm.overload_events");
  // One report at most every 2 check periods (10 s) per LC: <= 10/LC in 100 s.
  EXPECT_GE(overloads, 2u);
  EXPECT_LE(overloads, 22u);
}

TEST(Anomaly, NoUnderloadPingPong) {
  // Tiny VMs that can never make any node non-underloaded must not be
  // migrated back and forth forever (regression: the anti-ping-pong guard).
  SnoozeSystem system(spec_of(3, 12));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, constant_trace(0.7)));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 300.0);
  const std::uint64_t migrations =
      system.telemetry().metrics().value("gm.migrations_completed");
  // A couple of initial consolidating moves are fine; sustained churn is not.
  EXPECT_LE(migrations, 4u);
  EXPECT_EQ(system.running_vm_count(), 4u);
}

// --- Client behaviour ------------------------------------------------------------

TEST(Client, LatencyStatisticsAccumulate) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(system.make_vm({0.1, 0.1, 0.1}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.5);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().submitted(), 3u);
  EXPECT_EQ(system.client().latencies().count(), 3u);
  EXPECT_GT(system.client().latencies().mean(), 0.0);
}

TEST(Client, CallbackCarriesHostingLc) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  net::Address reported = net::kNullAddress;
  system.client().submit(system.make_vm({0.2, 0.2, 0.2}, 0.0, constant_trace(0.5)),
                         [&](bool ok, net::Address lc, double) {
                           ASSERT_TRUE(ok);
                           reported = lc;
                         });
  system.engine().run_until(system.engine().now() + 30.0);
  const LocalController* host = nullptr;
  for (const auto& lc : system.local_controllers()) {
    if (lc->address() == reported) host = lc.get();
  }
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->vm_count(), 1u);
}

// --- Reconfiguration knobs -----------------------------------------------------------

TEST(Reconfiguration, MigrationCapBoundsDisruptionPerRound) {
  SystemSpec spec = spec_of(2, 6);
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;
  spec.config.consolidation = ConsolidationKind::kAco;
  spec.config.reconfiguration_period = 60.0;
  spec.config.max_migrations_per_reconfiguration = 2;
  spec.config.underload_threshold = 0.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.9)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 500.0);
  const std::uint64_t commanded =
      system.telemetry().metrics().value("gm.migrations_commanded");
  const std::uint64_t rounds = system.telemetry().metrics().value("gm.reconfigurations");
  ASSERT_GE(rounds, 1u);
  EXPECT_LE(commanded, rounds * 2);  // never more than the cap per round
  // Successive capped rounds still make packing progress (each round
  // re-plans from scratch, so with a cap of 2 the fleet shrinks stepwise
  // from the 6 hosts round-robin spread them over).
  std::size_t hosts_with_vms = 0;
  for (const auto& lc : system.local_controllers()) {
    if (lc->vm_count() > 0) ++hosts_with_vms;
  }
  EXPECT_LE(hosts_with_vms, 4u);
  EXPECT_EQ(system.running_vm_count(), 6u);
}

TEST(Migration, OutboundMigrationsSerializeOnTheLink) {
  // Two VMs leave the same source LC in one reconfiguration round: the
  // second transfer must wait for the first (one migration link per node).
  SystemSpec spec = spec_of(2, 4);
  spec.config.consolidation = ConsolidationKind::kBfd;
  spec.config.reconfiguration_period = 60.0;
  spec.config.underload_threshold = 0.0;
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, constant_trace(0.9)));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 400.0);
  EXPECT_EQ(system.running_vm_count(), 4u);
  const auto starts = system.trace().of_kind("lc.migration_start");
  ASSERT_GE(starts.size(), 2u);
  // Any two migration starts from the SAME node must be separated by at
  // least one full transfer (>= memory_mb / bandwidth seconds).
  for (std::size_t i = 0; i < starts.size(); ++i) {
    for (std::size_t j = i + 1; j < starts.size(); ++j) {
      if (starts[i].actor != starts[j].actor) continue;
      const double gap = std::abs(starts[j].time - starts[i].time);
      EXPECT_GE(gap, 10.0) << starts[i].actor;  // >= ~2 GB over 125 MB/s
    }
  }
}

TEST(Estimation, EwmaEstimatorWorksEndToEnd) {
  SystemSpec spec = spec_of(2, 4);
  spec.config.estimator_kind = EstimatorKind::kEwma;
  spec.config.estimator_ewma_alpha = 0.4;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.running_vm_count(), 4u);
  // The GL summary reflects the EWMA-estimated demand (~0.5 of requested).
  GroupManager* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  const auto infos = gl->gm_infos();
  ASSERT_FALSE(infos.empty());
  EXPECT_NEAR(infos[0].used.cpu(), 0.5, 0.1);
}

// --- Whole-system determinism -------------------------------------------------------

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    SystemSpec spec = spec_of(3, 9);
    spec.seed = seed;
    spec.config.energy_savings = true;
    spec.config.idle_threshold = 20.0;
    SnoozeSystem system(spec);
    system.start();
    system.run_until_stable(60.0);
    std::vector<VmDescriptor> vms;
    for (int i = 0; i < 6; ++i) {
      TraceSpec t;
      t.kind = TraceSpec::Kind::kRandomSteps;
      t.a = 0.2;
      t.b = 0.9;
      t.c = 10.0;
      t.seed = seed + i;
      vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, t));
    }
    system.client().submit_all(vms, 0.3);
    system.engine().run_until(400.0);
    return std::make_tuple(system.total_energy(), system.total_work(),
                           system.engine().processed_events(),
                           system.network().stats().messages_sent,
                           system.trace().records().size());
  };
  EXPECT_EQ(run(7), run(7));
  // Different seeds drive different utilization traces -> different energy.
  // (Control-message *counts* may legitimately coincide: they are set by the
  // topology and timer periods, not by the randomness.)
  EXPECT_NE(std::get<0>(run(7)), std::get<0>(run(8)));
}

// --- Message sizes -------------------------------------------------------------------

TEST(Messages, MonitorDataSizeGrowsWithVmCount) {
  LcMonitorData small;
  LcMonitorData big;
  big.vms.resize(10);
  EXPECT_GT(big.wire_size(), small.wire_size());
}

// The exact byte counts feed `net.bytes_sent`; a change here moves every
// traffic figure, so it must be deliberate.
TEST(Messages, WireSizesArePinned) {
  LcMonitorData monitor;
  EXPECT_EQ(monitor.wire_size(), 96u);
  monitor.vms.resize(1);
  EXPECT_EQ(monitor.wire_size(), 168u);
  monitor.vms.resize(3);
  monitor.vms[1].migrating = true;
  EXPECT_EQ(monitor.wire_size(), 312u);

  EXPECT_EQ(SubmitVmRequest{}.wire_size(), 120u);
  EXPECT_EQ(PlacementRequest{}.wire_size(), 120u);
  EXPECT_EQ(StartVmRequest{}.wire_size(), 120u);
  EXPECT_EQ(AdoptVmRequest{}.wire_size(), 128u);
  EXPECT_EQ(AnomalyEvent{}.wire_size(), 28u);
}

TEST(Messages, TypeTagsAreDistinct) {
  GlHeartbeat a;
  GmHeartbeat b;
  LcHeartbeat c;
  EXPECT_NE(a.type(), b.type());
  EXPECT_NE(b.type(), c.type());
}

}  // namespace
