// Long-horizon operations tests: drain semantics (a draining LC refuses new
// placements but completes in-flight migrations), the rolling-upgrade
// orchestrator (full-fleet upgrade under live traffic with no SLO page and
// no stale-epoch accepts; an induced SLO burn mid-wave pauses and rolls
// back), the GL-driven autoscaler (flash-crowd wake, trough suspend, floors),
// and the GL submission-book retention bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/snooze.hpp"
#include "obs/health_monitor.hpp"
#include "ops/autoscaler.hpp"
#include "ops/upgrade.hpp"

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

std::size_t total_vms(SnoozeSystem& system) {
  std::size_t n = 0;
  for (const auto& lc : system.local_controllers()) n += lc->vm_count();
  return n;
}

GroupManager* owner_of(SnoozeSystem& system, const LocalController& lc) {
  for (const auto& gm : system.group_managers()) {
    if (gm->address() == lc.gm()) return gm.get();
  }
  return nullptr;
}

bool trace_has_kind(const std::vector<sim::TraceRecord>& records,
                    std::string_view kind) {
  return std::any_of(records.begin(), records.end(),
                     [&](const sim::TraceRecord& r) { return r.kind == kind; });
}

// --- Drain semantics ---------------------------------------------------------

// A draining LC is excluded from every placement policy: submissions arriving
// after the flag propagates all land elsewhere.
TEST(Drain, DrainingLcRefusesNewPlacements) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  auto& victim = *system.local_controllers().front();
  victim.begin_drain();
  // Let the draining flag reach the owning GM with the next monitoring report.
  system.engine().run_until(system.engine().now() + 5.0);

  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.15, 0.1, 0.1}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 30.0);

  EXPECT_TRUE(victim.draining());
  EXPECT_EQ(victim.vm_count(), 0u);
  EXPECT_EQ(total_vms(system), 6u) << "every VM placed, none on the draining node";
}

// Evacuation empties a loaded LC by live migration and every in-flight
// migration completes: the fleet-wide VM count is conserved.
TEST(Drain, EvacuationCompletesInFlightMigrations) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.15, 0.1, 0.1}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 20.0);
  ASSERT_EQ(total_vms(system), 6u);

  // Drain the busiest LC.
  LocalController* victim = nullptr;
  for (const auto& lc : system.local_controllers()) {
    if (victim == nullptr || lc->vm_count() > victim->vm_count()) victim = lc.get();
  }
  ASSERT_NE(victim, nullptr);
  ASSERT_GT(victim->vm_count(), 0u);
  victim->begin_drain();
  system.engine().run_until(system.engine().now() + 3.0);

  GroupManager* owner = owner_of(system, *victim);
  ASSERT_NE(owner, nullptr);
  ASSERT_TRUE(owner->alive());
  EXPECT_GT(owner->evacuate_lc(victim->address()), 0u);
  // The migration link carries one transfer at a time and each pre-copy takes
  // tens of seconds — give the whole queue room to drain.
  system.engine().run_until(system.engine().now() + 180.0);

  EXPECT_TRUE(victim->drained());
  EXPECT_EQ(victim->vm_count(), 0u);
  EXPECT_EQ(total_vms(system), 6u) << "in-flight migrations completed, nothing lost";
  EXPECT_FALSE(system.trace().of_kind("lc.migration_start").empty());
}

// A GM gives up its LCs three ways: a crash and restart, a drain ahead of a
// restart, and promotion to GL. Each must forget the LCs together with every
// migration it commanded there: the MigrateVm callbacks die with a crash and
// the MigrationDone reports go to the LCs' next GM, so a record that survived
// would never be cleared.
enum class GiveUp { kCrashRestart, kDrain, kPromotion };

void PrintTo(GiveUp way, std::ostream* os) {
  switch (way) {
    case GiveUp::kCrashRestart: *os << "crash_restart"; break;
    case GiveUp::kDrain: *os << "begin_drain"; break;
    case GiveUp::kPromotion: *os << "promotion"; break;
  }
}

class GmGivesUpLcs : public ::testing::TestWithParam<GiveUp> {};

TEST_P(GmGivesUpLcs, ForgetsLcsAndInFlightMigrations) {
  SnoozeSystem system(spec_of(2, 4));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) {
    vms.push_back(system.make_vm({0.15, 0.1, 0.1}, 0.0, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 20.0);

  LocalController* source = nullptr;
  for (const auto& lc : system.local_controllers()) {
    if (source == nullptr || lc->vm_count() > source->vm_count()) source = lc.get();
  }
  ASSERT_NE(source, nullptr);
  GroupManager* owner = owner_of(system, *source);
  ASSERT_NE(owner, nullptr);
  ASSERT_GT(owner->evacuate_lc(source->address()), 0u);
  ASSERT_GT(owner->inflight_migration_count(), 0u);

  switch (GetParam()) {
    case GiveUp::kCrashRestart:
      owner->fail();
      owner->restart();
      break;
    case GiveUp::kDrain:
      owner->begin_drain();
      break;
    case GiveUp::kPromotion: {
      // Two GMs: the owner is next in line once the GL dies, and is promoted
      // while its pre-copies are still on the wire.
      ASSERT_GE(system.fail_gl(), 0);
      const double deadline = system.engine().now() + 30.0;
      std::size_t inflight_before = 0;
      for (double t = system.engine().now(); !owner->is_leader(); t += 0.1) {
        ASSERT_LT(t, deadline) << "the owner was never promoted";
        inflight_before = owner->inflight_migration_count();
        system.engine().run_until(t + 0.1);
      }
      ASSERT_GT(inflight_before, 0u) << "promoted only after its migrations ended";
      break;
    }
  }
  EXPECT_EQ(owner->lc_count(), 0u);
  EXPECT_EQ(owner->inflight_migration_count(), 0u);
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_EQ(owner->inflight_migration_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Drain, GmGivesUpLcs,
                         ::testing::Values(GiveUp::kCrashRestart, GiveUp::kDrain,
                                           GiveUp::kPromotion),
                         ::testing::PrintToStringParamName());

// cancel_drain() reopens the node: subsequent placements may use it again.
TEST(Drain, CancelDrainReopensNode) {
  SnoozeSystem system(spec_of(2, 2));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  auto& lc = *system.local_controllers().front();
  lc.begin_drain();
  EXPECT_TRUE(lc.draining());
  EXPECT_TRUE(lc.drained());  // empty + quiet link: trivially drained
  lc.cancel_drain();
  EXPECT_FALSE(lc.draining());
}

// --- Rolling upgrade ---------------------------------------------------------

// Full-fleet rolling upgrade (all LCs, then both GMs, acting GL last) under
// live traffic: finishes, bumps every node, no SLO page, no stale-epoch
// accept, and the workload survives.
TEST(RollingUpgrade, FullFleetUnderTrafficNoPageNoStaleAccept) {
  chaos::ChaosRunConfig cfg;
  cfg.topology = {2, 4, 1};
  cfg.seed = 7;
  cfg.vms = 6;
  cfg.ops.upgrade_at = 10.0;
  cfg.ops.upgrade_config.settle_time = 10.0;
  const auto result =
      chaos::run_chaos_schedule(cfg, chaos::parse_script("duration 800\n"));
  EXPECT_TRUE(result.ok()) << result.report;
  EXPECT_TRUE(result.upgrade_done) << result.report;
  EXPECT_FALSE(result.upgrade_rolled_back);
  EXPECT_EQ(result.upgrade_nodes, 6u);  // 4 LCs + 2 GMs
  // The acting-GL wave legitimately pauses while its own planned step-down
  // election runs; anything beyond that brief gap would be a real stall.
  EXPECT_LE(result.upgrade_pauses, 2u);
  EXPECT_EQ(result.slo_alerts_fired, 0u) << "an upgrade must not page";
  EXPECT_EQ(result.stale_accepts, 0u)
      << "restarted incarnations re-mint epochs; no stale command may apply";
}

// An SLO burn that develops mid-wave pauses the upgrade; when it stays firing
// past rollback_after, the wave rolls back and the upgrade aborts. The burn is
// induced by crashing the GL with a deliberately unmeetable MTTR budget.
TEST(RollingUpgrade, SloBurnMidWavePausesThenRollsBack) {
  chaos::ChaosRunConfig cfg;
  cfg.topology = {2, 4, 1};
  cfg.seed = 11;
  cfg.vms = 4;
  cfg.capture_trace = true;
  // Real failover takes ~9 s (session timeout + heartbeat + reconcile), so a
  // 5 s budget makes any mid-upgrade failover a sustained burn (the MTTR SLI
  // is a cumulative mean: one blown episode keeps it firing).
  cfg.config.slo.failover_mttr_max_s = 5.0;
  cfg.ops.upgrade_at = 5.0;
  cfg.ops.upgrade_config.settle_time = 10.0;
  cfg.ops.upgrade_config.rollback_after = 15.0;

  const auto result = chaos::run_chaos_schedule(
      cfg, chaos::parse_script("duration 130\n"
                               "12 crash gl #1\n"
                               "45 recover #1\n"));
  EXPECT_TRUE(result.ok()) << result.report;
  EXPECT_TRUE(result.upgrade_rolled_back) << result.report;
  EXPECT_FALSE(result.upgrade_done);
  EXPECT_GE(result.upgrade_pauses, 1u);
  EXPECT_GE(result.slo_alerts_fired, 1u);
  EXPECT_EQ(result.stale_accepts, 0u);
  EXPECT_TRUE(trace_has_kind(result.trace_records, "ops.upgrade_paused"));
  EXPECT_TRUE(trace_has_kind(result.trace_records, "ops.upgrade_rolled_back"));
}

// Planning is a no-op when the fleet already runs the target version.
TEST(RollingUpgrade, AlreadyCurrentFleetFinishesImmediately) {
  SnoozeSystem system(spec_of(2, 2));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  ops::UpgradeConfig cfg;
  cfg.target_version = 1;  // everything ships as v1
  ops::RollingUpgrade upgrade(system, nullptr, cfg);
  upgrade.start();
  EXPECT_EQ(upgrade.state(), ops::UpgradeState::kDone);
  EXPECT_EQ(upgrade.wave_count(), 0u);
}

// --- Autoscaler --------------------------------------------------------------

// One full autoscale cycle: an idle fleet is scaled down to the floors, a
// flash crowd wakes capacity back up, and the post-burst trough sheds it
// again. The floors guarantee min_on_lcs stay powered throughout.
TEST(Autoscaler, FlashCrowdCycleWakesAndSuspends) {
  chaos::ChaosRunConfig cfg;
  cfg.topology = {2, 6, 1};
  cfg.seed = 5;
  cfg.vms = 2;
  cfg.ops.autoscaler = true;
  auto& as = cfg.ops.autoscaler_config;
  as.check_period = 2.0;
  as.scale_up_threshold = 0.45;
  as.scale_down_threshold = 0.22;
  as.up_stable_checks = 2;
  as.down_stable_checks = 3;
  as.cooldown = 10.0;
  as.min_on_lcs = 2;
  as.min_headroom_lcs = 1;
  as.max_step = 2;
  cfg.burst_at = 60.0;
  cfg.burst_vms = 8;
  cfg.burst_lifetime = 60.0;

  const auto result =
      chaos::run_chaos_schedule(cfg, chaos::parse_script("duration 200\n"));
  EXPECT_TRUE(result.ok()) << result.report;
  EXPECT_GE(result.scale_downs, 1u) << result.report;
  EXPECT_GE(result.scale_ups, 1u) << result.report;
  // The two long-lived VMs survived the whole cycle (the scale-down path only
  // ever suspends idle nodes) — ok() above already asserts the invariant
  // checker saw every accepted VM alive at the end.
}

// The scale-down floors hold: with min_on_lcs == fleet size the autoscaler
// never suspends anything, however idle the cluster is.
TEST(Autoscaler, FloorsPreventSuspendBelowMinimum) {
  SystemSpec spec = spec_of(2, 3);
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  ops::AutoscalerConfig cfg;
  cfg.check_period = 1.0;
  cfg.scale_down_threshold = 0.9;  // always "sagging"
  cfg.down_stable_checks = 2;
  cfg.cooldown = 1.0;
  cfg.min_on_lcs = 3;
  ops::Autoscaler autoscaler(system, cfg);
  autoscaler.start();
  system.engine().run_until(system.engine().now() + 60.0);

  EXPECT_EQ(autoscaler.scale_downs(), 0u);
  for (const auto& lc : system.local_controllers()) {
    EXPECT_NE(lc->power_state(), energy::PowerState::kSuspended) << lc->name();
  }
  autoscaler.stop();
  EXPECT_FALSE(autoscaler.running());
}

// --- GL submission-book retention -------------------------------------------

// Entries for terminated VMs stop being re-acknowledged by GM summaries and
// are pruned after the retention window — the book cannot grow without bound
// over a long horizon of short-lived VMs.
TEST(SubmissionBook, PrunesTerminatedEntries) {
  SystemSpec spec = spec_of(2, 4);
  spec.config.submission_book_retention = 20.0;
  SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  // The second VM never ends. Its book entry stops refreshing as the others
  // do, but the GL's inventory still lists it, so it must survive the prune.
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) {
    const double lifetime = i == 1 ? 0.0 : 8.0;
    vms.push_back(system.make_vm({0.15, 0.1, 0.1}, lifetime, constant_trace(0.5)));
  }
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 5.0);
  ASSERT_NE(system.leader(), nullptr);
  EXPECT_GT(system.leader()->submission_book_size(), 1u);

  // Lifetimes (8 s) expire, then the retention window (20 s) passes.
  system.engine().run_until(system.engine().now() + 60.0);
  ASSERT_NE(system.leader(), nullptr);
  EXPECT_EQ(system.leader()->submission_book_size(), 1u);
  EXPECT_EQ(system.leader()->vm_inventory().count(vms[1].id), 1u);
}

}  // namespace
