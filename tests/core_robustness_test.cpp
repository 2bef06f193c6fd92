// Robustness / failure-injection tests over complete deployments: network
// partitions (split-brain prevention), message loss, latency jitter, Entry
// Point replication, and degraded operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/snooze.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;

SystemSpec base_spec(std::size_t gms = 3, std::size_t lcs = 9) {
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

std::size_t leader_count(SnoozeSystem& system) {
  std::size_t leaders = 0;
  for (const auto& gm : system.group_managers()) {
    if (gm->alive() && gm->is_leader()) ++leaders;
  }
  return leaders;
}

// --- Partitions --------------------------------------------------------------

TEST(Partition, IsolatedGlIsReplaced) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* old_gl = system.leader();
  ASSERT_NE(old_gl, nullptr);

  // Cut the GL (all its connections, election client included) off from the
  // rest of the world.
  std::set<net::Address> island;
  for (net::Address a : old_gl->network_addresses()) island.insert(a);
  system.network().set_partitions({island});
  system.engine().run_until(system.engine().now() + 60.0);

  // Its coordination session expired; a successor was elected on the other
  // side of the partition.
  GroupManager* new_gl = nullptr;
  for (auto& gm : system.group_managers()) {
    if (gm.get() != old_gl && gm->is_leader()) new_gl = gm.get();
  }
  ASSERT_NE(new_gl, nullptr);
}

TEST(Partition, HealedGlAbdicatesNoSplitBrain) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* old_gl = system.leader();

  std::set<net::Address> island;
  for (net::Address a : old_gl->network_addresses()) island.insert(a);
  system.network().set_partitions({island});
  system.engine().run_until(system.engine().now() + 60.0);
  // At this point both the old (isolated) and the new GL believe they lead.
  EXPECT_EQ(leader_count(system), 2u);

  // Heal the partition: the old leader must observe the higher election
  // epoch in the successor's heartbeats and abdicate.
  system.network().set_partitions({});
  system.engine().run_until(system.engine().now() + 30.0);
  EXPECT_EQ(leader_count(system), 1u);
  EXPECT_FALSE(old_gl->is_leader());
  EXPECT_GE(system.trace().count("gm.stepdown"), 1u);
  // The healed stale leader must have rejoined the election with a fresh
  // candidate znode (strictly higher epoch than the term it lost).
  const auto stepdowns = system.trace().of_kind("gm.stepdown");
  EXPECT_GE(std::count_if(stepdowns.begin(), stepdowns.end(),
                          [&](const auto& r) { return r.actor == old_gl->name(); }),
            1);
}

TEST(Partition, HierarchyStableAfterHeal) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* old_gl = system.leader();
  std::set<net::Address> island;
  for (net::Address a : old_gl->network_addresses()) island.insert(a);
  system.network().set_partitions({island});
  system.engine().run_until(system.engine().now() + 60.0);
  system.network().set_partitions({});
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 120.0));
  // Submissions work against the healed hierarchy.
  std::vector<VmDescriptor> vms{system.make_vm({0.2, 0.2, 0.2}, 0.0,
                                               constant_trace(0.5))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 1u);
}

TEST(Partition, IsolatedLcRejoinsAfterHeal) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  auto& lc = *system.local_controllers()[0];
  ASSERT_TRUE(lc.assigned());

  // Cut the LC off long enough for its GM to declare it dead; the node
  // itself keeps running (no crash, so no reboot on heal).
  system.network().set_partitions({{lc.address()}});
  system.engine().run_until(system.engine().now() + 60.0);

  // After healing it must rediscover the hierarchy and get assigned again.
  system.network().set_partitions({});
  ASSERT_TRUE(system.run_until_stable(system.engine().now() + 120.0));
  EXPECT_TRUE(lc.assigned());
}

// --- Message loss ---------------------------------------------------------------

TEST(MessageLoss, HierarchyFormsUnderFivePercentLoss) {
  SystemSpec spec = base_spec();
  SnoozeSystem system(spec);
  system.network().set_drop_probability(0.05);
  system.start();
  EXPECT_TRUE(system.run_until_stable(120.0));
}

TEST(MessageLoss, SubmissionsRetryThroughLoss) {
  SnoozeSystem system(base_spec());
  system.network().set_drop_probability(0.05);
  system.start();
  ASSERT_TRUE(system.run_until_stable(120.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.5);
  system.engine().run_until(system.engine().now() + 120.0);
  // Client-level retries must absorb the loss.
  EXPECT_GE(system.client().succeeded(), 5u);
  EXPECT_EQ(system.running_vm_count(), system.client().succeeded());
}

TEST(MessageLoss, HeartbeatTimeoutsTolerateOccasionalDrops) {
  SnoozeSystem system(base_spec());
  system.network().set_drop_probability(0.05);
  system.start();
  ASSERT_TRUE(system.run_until_stable(120.0));
  // With the 3.5x timeout factor a single dropped heartbeat must not cause
  // spurious failovers during five minutes of operation.
  const std::size_t elections_before = system.trace().count("gm.elected_gl");
  system.engine().run_until(system.engine().now() + 300.0);
  EXPECT_EQ(system.trace().count("gm.elected_gl"), elections_before);
}

// --- Latency jitter ---------------------------------------------------------------

TEST(Jitter, HighJitterNetworkStillConverges) {
  SystemSpec spec = base_spec();
  spec.latency.base = 5e-3;
  spec.latency.jitter = 20e-3;  // up to 25 ms one-way
  SnoozeSystem system(spec);
  system.start();
  EXPECT_TRUE(system.run_until_stable(120.0));
  std::vector<VmDescriptor> vms{system.make_vm({0.2, 0.2, 0.2}, 0.0,
                                               constant_trace(0.5))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 1u);
}

// --- Entry Point replication ----------------------------------------------------------

TEST(EntryPoints, ClientFallsBackToSecondEp) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.entry_points()[0]->fail();
  std::vector<VmDescriptor> vms{system.make_vm({0.2, 0.2, 0.2}, 0.0,
                                               constant_trace(0.5))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 1u);
}

TEST(EntryPoints, AllEpsDeadSubmissionFailsGracefully) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  for (auto& ep : system.entry_points()) ep->fail();
  std::vector<VmDescriptor> vms{system.make_vm({0.2, 0.2, 0.2}, 0.0,
                                               constant_trace(0.5))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_EQ(system.client().succeeded(), 0u);
  EXPECT_EQ(system.client().failed(), 1u);
}

TEST(EntryPoints, RestartedEpLearnsTheGlAgain) {
  SnoozeSystem system(base_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  system.entry_points()[0]->fail();
  system.engine().run_until(system.engine().now() + 10.0);
  system.entry_points()[0]->restart();
  system.engine().run_until(system.engine().now() + 10.0);
  EXPECT_EQ(system.entry_points()[0]->known_gl(), system.gl_address());
}

// --- Degraded operation ------------------------------------------------------------

TEST(Degraded, AllGmFailuresLeaveOnlyGl) {
  SnoozeSystem system(base_spec(3, 6));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (!system.group_managers()[i]->is_leader()) system.fail_gm(i);
  }
  system.engine().run_until(system.engine().now() + 30.0);
  // Submissions cannot be placed (the GL hosts no LCs) but must fail cleanly.
  std::vector<VmDescriptor> vms{system.make_vm({0.2, 0.2, 0.2}, 0.0,
                                               constant_trace(0.5))};
  system.client().submit_all(vms, 0.0);
  system.engine().run_until(system.engine().now() + 180.0);
  EXPECT_EQ(system.client().succeeded(), 0u);
  EXPECT_EQ(system.client().failed(), 1u);
}

TEST(Degraded, RestartedGmRejoinsAndServes) {
  SnoozeSystem system(base_spec(3, 6));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::size_t victim = 0;
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (!system.group_managers()[i]->is_leader()) {
      victim = i;
      break;
    }
  }
  system.fail_gm(victim);
  system.engine().run_until(system.engine().now() + 30.0);
  system.group_managers()[victim]->restart();
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 120.0));
  EXPECT_EQ(system.assigned_lc_count(), 6u);
}

// --- Scale ------------------------------------------------------------------------

TEST(Scale, ThousandNodeHierarchySelfOrganizes) {
  // Paper §IV: "our architecture is sufficient in order to provide
  // scalability and fault tolerance properties for thousands of nodes."
  SnoozeSystem system(base_spec(9, 1000));
  system.start();
  ASSERT_TRUE(system.run_until_stable(120.0));
  EXPECT_EQ(system.assigned_lc_count(), 1000u);
  // Eight worker GMs share the fleet evenly (round-robin assignment).
  for (const auto& gm : system.group_managers()) {
    if (gm->is_leader()) continue;
    EXPECT_EQ(gm->lc_count(), 125u);
  }
  // Submissions flow at this scale too.
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 20; ++i) {
    vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_EQ(system.client().succeeded(), 20u);
}

TEST(Scale, ThousandNodeGlFailoverStillWorks) {
  SnoozeSystem system(base_spec(9, 1000));
  system.start();
  ASSERT_TRUE(system.run_until_stable(120.0));
  system.fail_gl();
  system.engine().run_until(system.engine().now() + 10.0);
  EXPECT_TRUE(system.run_until_stable(system.engine().now() + 180.0));
  EXPECT_EQ(system.assigned_lc_count(), 1000u);
}

}  // namespace
