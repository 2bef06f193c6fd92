// Gray-failure (fail-slow) detection and containment, end to end:
//
//   inject      an LC/GM keeps heartbeating but serves slowly (service-time
//               stretch, CPU steal) — liveness machinery sees nothing wrong
//   detect      GMs probe peers and score operation latency against a robust
//               peer-relative baseline (median/MAD) with hysteresis
//   contain     probation (excluded from placement) -> quarantine (evacuated
//               + suspended) -> hysteretic reinstatement, with an avalanche
//               cap on the quarantined fraction
//   at GL level a slow-but-alive GM is flagged and avoided — but never
//               declared dead: no spurious election may fire
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/runner.hpp"
#include "core/snooze.hpp"
#include "obs/health_monitor.hpp"

namespace {

using namespace snooze;

core::SystemSpec gray_spec(std::size_t gms, std::size_t lcs) {
  core::SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = gms;
  spec.local_controllers = lcs;
  spec.seed = 42;
  return spec;
}

struct GrayCounters {
  std::uint64_t slow_flags = 0;
  std::uint64_t probations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t quarantines_deferred = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t quarantine_flaps = 0;
};

GrayCounters sum_gray(core::SnoozeSystem& system) {
  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  GrayCounters out;
  out.probations = metrics.value("gm.lc_probations");
  out.slow_flags = out.probations + metrics.value("gl.gm_slow_flagged");
  out.quarantines = metrics.value("gm.lc_quarantines");
  out.quarantines_deferred = metrics.value("gm.quarantines_deferred");
  out.reinstatements = metrics.value("gm.lc_reinstatements");
  out.quarantine_flaps = metrics.value("gm.quarantine_flaps");
  return out;
}

/// Run the engine in slices until `done()` or the budget elapses.
template <typename Pred>
bool run_until(core::SnoozeSystem& system, double budget, Pred done) {
  const double start = system.engine().now();
  while (system.engine().now() - start < budget) {
    if (done()) return true;
    system.engine().run_until(system.engine().now() + 5.0);
  }
  return done();
}

TEST(GrayFailure, SlowLcWalksTheContainmentLadder) {
  // 2 GMs: one is promoted GL (and resigns its LCs), so all 8 LCs sit under
  // one working GM — the quarantine cap (20% floored at 1) permits exactly
  // one quarantine there.
  core::SnoozeSystem system(gray_spec(2, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  auto& lc = *system.local_controllers().front();
  ASSERT_TRUE(lc.assigned());
  lc.set_service_stretch(4.0);

  // Probation: peer-relative z-score crosses the flag threshold and sustains.
  ASSERT_TRUE(run_until(system, 60.0,
                        [&] { return sum_gray(system).probations >= 1; }))
      << "slow LC was never placed on probation";
  // Quarantine: sustained probation escalates; the empty LC is suspended.
  ASSERT_TRUE(run_until(system, 60.0,
                        [&] { return sum_gray(system).quarantines >= 1; }))
      << "sustained probation never escalated to quarantine";
  EXPECT_TRUE(run_until(system, 30.0, [&] { return lc.suspended(); }))
      << "quarantined LC was not suspended";

  // The node recovers; after the dwell it is woken, probed clean, reinstated.
  lc.set_service_stretch(1.0);
  ASSERT_TRUE(run_until(system, 300.0,
                        [&] { return sum_gray(system).reinstatements >= 1; }))
      << "recovered LC was never reinstated";
  EXPECT_TRUE(run_until(system, 60.0, [&] { return !lc.suspended(); }));

  const GrayCounters gray = sum_gray(system);
  EXPECT_GE(gray.slow_flags, 1u);
  EXPECT_EQ(gray.quarantine_flaps, 0u) << "reinstated LC flapped back";
}

TEST(GrayFailure, CpuStealIsDetectedAsSlowness) {
  core::SnoozeSystem system(gray_spec(2, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  auto& lc = *system.local_controllers()[2];
  ASSERT_TRUE(lc.assigned());
  lc.set_cpu_steal(0.6);  // effective slowdown 1/(1-0.6) = 2.5x

  ASSERT_TRUE(run_until(system, 90.0,
                        [&] { return sum_gray(system).probations >= 1; }))
      << "CPU-stolen LC was never flagged";
  // The flagged node is exactly the stolen one.
  int health = -1;
  for (const auto& gm : system.group_managers()) {
    const int h = gm->lc_health_of(lc.address());
    if (h >= 0) health = h;
  }
  EXPECT_GE(health, 1) << "stolen LC not in probation/quarantine";
}

TEST(GrayFailure, QuarantineCapStopsAvalanches) {
  // Three of eight LCs under the single working GM turn slow; the cap
  // (kMaxQuarantinedFraction 0.2 of 8, floored at 1) lets exactly one
  // through and defers the rest — containment must not amplify the outage.
  core::SnoozeSystem system(gray_spec(2, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  for (const std::size_t i : {0u, 2u, 4u}) {
    system.local_controllers()[i]->set_service_stretch(4.0);
  }
  ASSERT_TRUE(run_until(system, 120.0, [&] {
    const GrayCounters g = sum_gray(system);
    return g.quarantines >= 1 && g.quarantines_deferred >= 1;
  })) << "expected one quarantine and at least one deferred escalation";
  const GrayCounters gray = sum_gray(system);
  EXPECT_EQ(gray.quarantines, 1u) << "cap allowed an avalanche";
  EXPECT_GE(gray.probations, 3u);
}

TEST(GrayFailure, SlowGmIsFlaggedByGlButNeverKilled) {
  // 5 GMs: the GL needs >= 3 reporting peers for a robust baseline, and the
  // slow one must stand against at least 3 healthy ones.
  core::SnoozeSystem system(gray_spec(5, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  const net::Address gl = system.gl_address();
  ASSERT_NE(gl, net::kNullAddress);
  core::GroupManager* leader = nullptr;
  core::GroupManager* slow_gm = nullptr;
  for (const auto& gm : system.group_managers()) {
    if (gm->address() == gl) {
      leader = gm.get();
    } else if (slow_gm == nullptr) {
      slow_gm = gm.get();
    }
  }
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(slow_gm, nullptr);
  slow_gm->set_service_stretch(4.0);

  ASSERT_TRUE(run_until(system, 90.0,
                        [&] { return leader->gm_probation_count() >= 1; }))
      << "GL never flagged the slow GM";

  // Slow != dead: same leader, no election, no stepdown, the slow GM still
  // manages its LCs.
  EXPECT_EQ(system.gl_address(), gl);
  EXPECT_TRUE(slow_gm->alive());
  const std::uint64_t stepdowns = system.telemetry().metrics().value("gl.stepdowns");
  EXPECT_EQ(stepdowns, 0u) << "a slow-but-alive GM triggered an election";

  // Hysteresis: once the GM recovers, the flag clears.
  slow_gm->set_service_stretch(1.0);
  EXPECT_TRUE(run_until(system, 180.0,
                        [&] { return leader->gm_probation_count() == 0; }))
      << "flag never cleared after recovery";
  EXPECT_EQ(system.gl_address(), gl);
}

TEST(GrayFailure, DetectionOffMeansNoProbesNoFlags) {
  core::SystemSpec spec = gray_spec(2, 6);
  spec.config.gray_detection = false;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  system.local_controllers()[1]->set_service_stretch(4.0);
  system.engine().run_until(system.engine().now() + 120.0);
  const GrayCounters gray = sum_gray(system);
  EXPECT_EQ(gray.slow_flags, 0u);
  EXPECT_EQ(gray.probations, 0u);
  EXPECT_EQ(system.telemetry().metrics().find_counter("gray.probes"), nullptr);
}

TEST(GrayFailure, InjectorDrivesTheGrayLadderFromAScript) {
  // End-to-end through the chaos stack: script -> injector -> detection ->
  // containment -> heal, with invariants checked throughout. The slow window
  // is long enough for a quarantine and the post-heal run long enough for
  // probation to clear.
  chaos::ChaosRunConfig cfg;
  cfg.topology.group_managers = 2;
  cfg.topology.local_controllers = 8;
  cfg.seed = 7;
  cfg.vms = 6;
  const auto schedule = chaos::parse_script(
      "duration 120\n"
      "5 slow lc 1 factor=4 #1\n"
      "100 unslow #1\n"
      "10 steal lc 5 frac=0.5 #2\n"
      "100 unsteal #2\n"
      "20 flaky gm 0 lc 3 lat=0.2\n"
      "80 unflaky gm 0 lc 3\n");
  const auto result = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(result.converged) << result.report;
  EXPECT_TRUE(result.invariants_ok) << result.report;
  EXPECT_EQ(result.faults_injected, 3u);
  EXPECT_GE(result.slow_flags, 1u) << result.report;
  EXPECT_GE(result.probations, 1u) << result.report;
  EXPECT_EQ(result.quarantine_flaps, 0u) << result.report;
  // Deterministic like every other chaos run.
  const auto again = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_EQ(result.trace_hash, again.trace_hash);
  EXPECT_EQ(result.report, again.report);
}

TEST(GrayFailure, HealthMonitorExposesGraySlis) {
  core::SnoozeSystem system(gray_spec(2, 8));
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  obs::HealthMonitor monitor(system);
  monitor.start();

  auto& lc = *system.local_controllers().front();
  lc.set_service_stretch(4.0);
  ASSERT_TRUE(run_until(system, 90.0,
                        [&] { return sum_gray(system).probations >= 1; }));
  monitor.sample_now();

  const auto& store = monitor.store();
  const auto& cols = store.columns();
  const auto find_col = [&](const char* name) {
    const auto it = std::find(cols.begin(), cols.end(), name);
    EXPECT_NE(it, cols.end()) << name;
    return static_cast<std::size_t>(it - cols.begin());
  };
  EXPECT_GE(store.latest(find_col("gray.slow_nodes")), 1.0);
  EXPECT_GE(store.latest(find_col("gray.quarantined")), 0.0);
  EXPECT_GE(store.latest(find_col("rpc.hedges_won")), 0.0);
  EXPECT_GE(store.latest(find_col("breaker.open_s")), 0.0);
  // The per-node table names the offender.
  const std::string top = monitor.top(0);
  EXPECT_TRUE(top.find("probation") != std::string::npos ||
              top.find("quarantine") != std::string::npos)
      << top;
}

}  // namespace
