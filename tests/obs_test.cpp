// Observability-layer tests: the ring-buffered time-series store, SLO
// burn/clear hysteresis, critical-path attribution of submission latency,
// the failover-MTTR SLI against the raw chaos trace, per-power-state energy
// accounting, and — the determinism contract — byte-identical series and
// alert records across same-seed runs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/snooze.hpp"
#include "obs/health_monitor.hpp"
#include "obs/slo.hpp"
#include "obs/slowness.hpp"
#include "obs/timeseries.hpp"

namespace {

using namespace snooze;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- TimeSeriesStore ---------------------------------------------------------

TEST(TimeSeriesStore, RingEvictsOldestAndCountsDropped) {
  obs::TimeSeriesStore store(3);
  const auto a = store.add_column("a");
  for (int i = 0; i < 5; ++i) store.append_row(static_cast<double>(i), {i * 10.0});

  EXPECT_EQ(store.row_count(), 3u);
  EXPECT_EQ(store.dropped(), 2u);
  // Oldest retained row is t=2; newest is t=4.
  EXPECT_DOUBLE_EQ(store.time_at(0), 2.0);
  EXPECT_DOUBLE_EQ(store.latest_time(), 4.0);
  EXPECT_DOUBLE_EQ(store.latest(a), 40.0);
}

TEST(TimeSeriesStore, EmptyStoreReportsNaN) {
  obs::TimeSeriesStore store;
  store.add_column("x");
  EXPECT_TRUE(std::isnan(store.latest(0)));
  EXPECT_TRUE(std::isnan(store.latest_time()));
  EXPECT_TRUE(std::isnan(store.delta_over(0, 60.0)));
}

TEST(TimeSeriesStore, DeltaOverWindowAndShortHistoryFallback) {
  obs::TimeSeriesStore store;
  const auto c = store.add_column("cum");
  for (int i = 0; i <= 10; ++i) store.append_row(static_cast<double>(i), {i * 2.0});

  // Full window available: latest(20) - value at t=5 (>= 5s old) = 10.
  EXPECT_DOUBLE_EQ(store.delta_over(c, 5.0), 10.0);
  EXPECT_DOUBLE_EQ(store.span_over(5.0), 5.0);
  // Window longer than history: falls back to the oldest row.
  EXPECT_DOUBLE_EQ(store.delta_over(c, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(store.span_over(100.0), 10.0);
}

TEST(TimeSeriesStore, CsvIsWideTableWithHeader) {
  obs::TimeSeriesStore store;
  store.add_column("a");
  store.add_column("b");
  store.append_row(1.5, {2.0, 3.25});

  const std::string csv = store.csv();
  EXPECT_EQ(csv.rfind("time,a,b\n", 0), 0u);
  EXPECT_NE(csv.find("1.5,2,3.25"), std::string::npos);
}

// --- SloEvaluator hysteresis -------------------------------------------------

core::SloConfig test_slo_config() {
  core::SloConfig cfg;
  cfg.burn_samples = 3;
  cfg.clear_samples = 2;
  cfg.clear_fraction = 0.8;
  return cfg;
}

TEST(SloEvaluator, FiresOnlyAfterBurnStreak) {
  obs::SloEvaluator slo(test_slo_config());
  // Two breaches then a good sample: streak resets, nothing fires.
  EXPECT_FALSE(slo.observe("sli", 11.0, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 11.0, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 1.0, 10.0).has_value());
  EXPECT_EQ(slo.firing_count(), 0u);

  // Three consecutive breaches: fires exactly on the third.
  EXPECT_FALSE(slo.observe("sli", 12.0, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 12.0, 10.0).has_value());
  const auto fired = slo.observe("sli", 12.0, 10.0);
  ASSERT_TRUE(fired.has_value());
  EXPECT_TRUE(fired->fired);
  EXPECT_EQ(fired->sli, "sli");
  EXPECT_DOUBLE_EQ(fired->value, 12.0);
  EXPECT_DOUBLE_EQ(fired->threshold, 10.0);
  EXPECT_EQ(slo.firing_count(), 1u);
  // Further breaches keep firing without a new transition.
  EXPECT_FALSE(slo.observe("sli", 13.0, 10.0).has_value());
}

TEST(SloEvaluator, ClearsOnlyWellBelowThreshold) {
  obs::SloEvaluator slo(test_slo_config());
  for (int i = 0; i < 3; ++i) slo.observe("sli", 20.0, 10.0);
  ASSERT_EQ(slo.firing_count(), 1u);

  // 9.0 is below the threshold but above clear_fraction * threshold (8.0):
  // not "clearly good", the alert must not clear (no flapping).
  EXPECT_FALSE(slo.observe("sli", 9.0, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 9.0, 10.0).has_value());
  EXPECT_EQ(slo.firing_count(), 1u);

  // Two clearly-good samples (< 8.0) clear it.
  EXPECT_FALSE(slo.observe("sli", 7.0, 10.0).has_value());
  const auto cleared = slo.observe("sli", 7.0, 10.0);
  ASSERT_TRUE(cleared.has_value());
  EXPECT_FALSE(cleared->fired);
  EXPECT_EQ(slo.firing_count(), 0u);
  EXPECT_EQ(slo.status().at("sli").times_fired, 1u);
}

TEST(SloEvaluator, NaNIsAbsenceOfEvidence) {
  obs::SloEvaluator slo(test_slo_config());
  // NaN interrupts a burn streak...
  slo.observe("sli", 20.0, 10.0);
  slo.observe("sli", 20.0, 10.0);
  EXPECT_FALSE(slo.observe("sli", kNaN, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 20.0, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", 20.0, 10.0).has_value());
  EXPECT_TRUE(slo.observe("sli", 20.0, 10.0).has_value());  // fresh streak of 3

  // ...and while firing it neither advances nor resets the clear streak: the
  // good sample before the gap still counts, so one more clears (2 of 2).
  slo.observe("sli", 1.0, 10.0);
  EXPECT_FALSE(slo.observe("sli", kNaN, 10.0).has_value());
  EXPECT_FALSE(slo.observe("sli", kNaN, 10.0).has_value());
  EXPECT_EQ(slo.firing_count(), 1u);
  EXPECT_TRUE(slo.observe("sli", 1.0, 10.0).has_value());  // 2nd good sample clears
}

// Flap accounting: every fire AND clear transition is stamped with its
// timestamp; flaps_in_window() counts transitions inside the trailing window
// and forgets older ones.
TEST(SloEvaluator, CountsTransitionsInTrailingFlapWindow) {
  core::SloConfig cfg = test_slo_config();
  cfg.flap_window_s = 100.0;
  obs::SloEvaluator slo(cfg);

  // Fire at t=3 (three breaches), clear at t=5 (two clearly-good samples).
  slo.observe("sli", 20.0, 10.0, 1.0);
  slo.observe("sli", 20.0, 10.0, 2.0);
  ASSERT_TRUE(slo.observe("sli", 20.0, 10.0, 3.0).has_value());
  slo.observe("sli", 1.0, 10.0, 4.0);
  ASSERT_TRUE(slo.observe("sli", 1.0, 10.0, 5.0).has_value());

  EXPECT_EQ(slo.total_transitions(), 2u);
  EXPECT_DOUBLE_EQ(slo.flaps_in_window(5.0), 2.0);
  // At t=104 the fire (t=3) has aged out of the 100 s window; the clear
  // (t=5) has not.
  EXPECT_DOUBLE_EQ(slo.flaps_in_window(104.0), 1.0);
  EXPECT_DOUBLE_EQ(slo.flaps_in_window(300.0), 0.0);
  EXPECT_EQ(slo.total_transitions(), 2u);  // the lifetime count never forgets
}

// --- HealthMonitor on a live system -----------------------------------------

core::SnoozeSystem make_system(std::uint64_t seed) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 6;
  spec.seed = seed;
  return core::SnoozeSystem(spec);
}

TEST(HealthMonitor, SamplesAtFixedCadenceAndIsIdempotentPerTimestamp) {
  auto system = make_system(11);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system);
  monitor.start();
  const double t0 = system.engine().now();
  system.engine().run_until(t0 + 10.0);

  // One row at start() + one per sample_period (1 s) tick.
  const std::size_t rows = monitor.store().row_count();
  EXPECT_GE(rows, 10u);
  EXPECT_LE(rows, 12u);

  // Re-sampling at the same virtual time must not add a row (pull-based CLI
  // refresh cannot double-feed the hysteresis).
  monitor.sample_now();
  monitor.sample_now();
  EXPECT_EQ(monitor.store().row_count(), rows);
}

TEST(HealthMonitor, CriticalPathExplainsHealthySubmissionLatency) {
  auto system = make_system(12);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system);
  monitor.start();
  std::vector<core::VmDescriptor> vms;
  for (int i = 0; i < 10; ++i) vms.push_back(system.make_vm({0.1, 0.1, 0.1}));
  system.client().submit_all(vms, 1.0);
  system.engine().run_until(system.engine().now() + 60.0);

  const auto path = monitor.critical_path();
  EXPECT_EQ(path.traces, 10u);
  EXPECT_GT(path.total_seconds, 0.0);
  // On a healthy run nearly all submit→running wall-clock is explained by
  // the four mechanism phases (boot time dominates; no retry backoff).
  EXPECT_GE(path.coverage, 0.95);
  ASSERT_EQ(path.phases.size(), 5u);
  const double sum = std::accumulate(
      path.phases.begin(), path.phases.end(), 0.0,
      [](double acc, const auto& p) { return acc + p.seconds; });
  EXPECT_NEAR(sum, path.total_seconds, 1e-6);
  // lc_start (VM boot, 2 s per VM) must be the dominant phase.
  EXPECT_EQ(path.phases[3].name, "lc_start");
  EXPECT_GT(path.phases[3].fraction, 0.5);
}

TEST(HealthMonitor, EnergyByStateSumsToTotalAndRenderersMention) {
  auto system = make_system(13);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system);
  monitor.start();
  system.engine().run_until(system.engine().now() + 30.0);
  monitor.sample_now();

  const auto by_class = system.total_energy_by_state();
  const double sum = by_class[0] + by_class[1] + by_class[2];
  EXPECT_NEAR(sum, system.total_energy(), 1e-6 * std::max(1.0, sum));
  EXPECT_GT(by_class[0], 0.0);  // powered-on nodes burned energy

  EXPECT_NE(monitor.dashboard().find("energy.joules"), std::string::npos);
  EXPECT_NE(monitor.slo_table().find("submit_p99"), std::string::npos);
  EXPECT_NE(monitor.top(3).find("lc-"), std::string::npos);
}

TEST(HealthMonitor, ChromeTraceGainsCounterLanes) {
  auto system = make_system(14);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system);
  monitor.start();
  system.engine().run_until(system.engine().now() + 5.0);
  monitor.sample_now();

  const std::string json = obs::chrome_trace_with_counters(
      system.telemetry().spans(), system.engine().now(), monitor.store());
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"vms.running\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// --- summary-protocol SLIs ---------------------------------------------------

std::size_t column_of(const obs::TimeSeriesStore& store, const std::string& name) {
  const auto& cols = store.columns();
  for (std::size_t i = 0; i < cols.size(); ++i)
    if (cols[i] == name) return i;
  ADD_FAILURE() << "no such column: " << name;
  return 0;
}

// The two summary SLIs are live: bytes per sending GM per summary period
// settles to a finite positive rate (steady state is one near-empty delta
// header per non-leader GM per period) and the GL-side staleness stays
// within the SLO bound.
TEST(HealthMonitor, SummarySlisAreLive) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 6;
  spec.seed = 18;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system);
  monitor.start();
  std::vector<core::VmDescriptor> vms;
  for (int i = 0; i < 4; ++i) vms.push_back(system.make_vm({0.1, 0.1, 0.1}));
  system.client().submit_all(vms, 1.0);
  system.engine().run_until(system.engine().now() + 120.0);

  const auto& store = monitor.store();
  const double bytes = store.latest(column_of(store, "summary.bytes_per_gm_period"));
  const double staleness = store.latest(column_of(store, "summary.staleness_s"));
  EXPECT_GT(bytes, 0.0);
  // Per sending GM the figure is topology-invariant (one near-empty delta
  // header per period), so the SLO threshold itself is the healthy bound
  // even in this dense test shape.
  EXPECT_LT(bytes, test_slo_config().summary_bytes_per_gm_period_max);
  EXPECT_GE(staleness, 0.0);
  EXPECT_LT(staleness, test_slo_config().summary_staleness_max_s);
}

// --- failover MTTR SLI vs the raw trace --------------------------------------

// The golden gl_crash scenario: the GL crashes at t=5 and a successor must
// reconcile within the E13 bound (session timeout 6 s + one heartbeat period
// + gl_reconcile_window 2.5 s = 9.5 s). The monitor's MTTR SLI is derived
// from the same trace events the bound is stated over.
TEST(FailoverMttrSli, ChaosGlCrashWithinE13Bound) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 303;
  cfg.topology = {3, 6, 2};
  cfg.vms = 6;
  cfg.capture_trace = true;
  const auto schedule = chaos::parse_script(
      "duration 40\n"
      "5 crash gl #1\n"
      "20 recover #1\n");
  const auto result = chaos::run_chaos_schedule(cfg, schedule);
  ASSERT_TRUE(result.ok()) << result.report;

  ASSERT_EQ(result.failover_episodes, 1u);
  EXPECT_GT(result.failover_mttr_s, 0.0);
  EXPECT_LE(result.failover_mttr_s, 9.5);

  // Cross-check against the raw trace: the episode the monitor measured is
  // gm.fail(acting GL) -> first gl.reconciled after it.
  double t_fail = -1.0, t_reconciled = -1.0;
  std::string gl_name;
  for (const auto& r : result.trace_records) {
    if (r.kind == "gm.elected_gl" && t_fail < 0.0) gl_name = r.actor;
    if (r.kind == "gm.fail" && r.actor == gl_name && t_fail < 0.0) t_fail = r.time;
    if (r.kind == "gl.reconciled" && t_fail >= 0.0 && t_reconciled < 0.0)
      t_reconciled = r.time;
  }
  ASSERT_GE(t_fail, 0.0);
  ASSERT_GE(t_reconciled, t_fail);
  EXPECT_NEAR(result.failover_mttr_s, t_reconciled - t_fail, 0.5);

  // The latency degradation during failover must have tripped an SLO alert
  // (pinned in tests/golden/gl_crash.txt as well).
  EXPECT_GE(result.slo_alerts_fired, 1u);
  bool saw_alert_record = false;
  for (const auto& r : result.trace_records) {
    if (r.actor == "health" && r.kind == "slo.alert") saw_alert_record = true;
  }
  EXPECT_TRUE(saw_alert_record);
}

// --- determinism -------------------------------------------------------------

// Two same-seed chaos runs must produce byte-identical time-series CSVs and
// identical alert transitions: the observability layer is part of the
// deterministic state machine, not a best-effort side channel.
TEST(ObsDeterminism, SameSeedRunsProduceIdenticalSeriesAndAlerts) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 909;
  cfg.topology = {3, 9, 2};
  cfg.vms = 9;
  cfg.capture_trace = true;
  cfg.capture_timeseries = true;
  cfg.spec.duration = 50.0;

  const auto a = chaos::run_chaos(cfg);
  const auto b = chaos::run_chaos(cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_FALSE(a.timeseries_csv.empty());
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  EXPECT_EQ(a.slo_alerts_fired, b.slo_alerts_fired);
  EXPECT_EQ(a.slo_alerts_cleared, b.slo_alerts_cleared);
  EXPECT_EQ(a.failover_episodes, b.failover_episodes);
  EXPECT_DOUBLE_EQ(a.failover_mttr_s, b.failover_mttr_s);

  // Alert trace records (time + detail) must match one-for-one.
  auto alerts = [](const chaos::ChaosRunResult& r) {
    std::vector<std::string> out;
    for (const auto& rec : r.trace_records) {
      if (rec.actor == "health")
        out.push_back(std::to_string(rec.time) + " " + rec.kind + " " + rec.detail);
    }
    return out;
  };
  EXPECT_EQ(alerts(a), alerts(b));
}

// The monitor must be passive: the same run with the monitor disabled keeps
// the exact same trace hash when no alert transitions fire.
TEST(ObsDeterminism, MonitorIsReadOnlyOnQuietRuns) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 101;
  cfg.topology = {2, 4, 1};
  cfg.vms = 4;
  cfg.spec.duration = 30.0;

  auto with = cfg;
  with.health_monitor = true;
  auto without = cfg;
  without.health_monitor = false;

  const auto a = chaos::run_chaos(with);
  const auto b = chaos::run_chaos(without);
  ASSERT_EQ(a.slo_alerts_fired, 0u);  // quiet run: nothing may fire
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

// --- Incremental trace scan vs the ring buffer -------------------------------

// Regression: with a tiny trace ring, records can be trimmed *between* two
// monitor samples, so the incremental gm.fail -> gl.reconciled scan resumes
// past records it never saw. The scan must detect the gap (dropped() moved
// beyond its cursor), reset the open-episode bookkeeping instead of closing
// an episode against a half-seen trace, and keep working afterwards.
TEST(HealthMonitor, ScanSurvivesTraceRingTrimming) {
  auto system = make_system(13);
  system.trace().set_max_records(8);  // trims at 16 — every burst overruns it
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  obs::HealthMonitor monitor(system, 64);
  monitor.sample_now();

  // A full failover plus a burst of placements with NO samples in between:
  // by the next sample the gm.fail / gl.elected / gl.reconciled records have
  // rotated out.
  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 15.0);
  std::vector<core::VmDescriptor> vms;
  for (int i = 0; i < 6; ++i) vms.push_back(system.make_vm({0.15, 0.1, 0.1}));
  system.client().submit_all(vms, 0.2);
  system.engine().run_until(system.engine().now() + 15.0);
  monitor.sample_now();

  EXPECT_GE(monitor.scan_gaps(), 1u);
  // The episode was inside the trimmed span: it must be dropped, not
  // mis-closed from whatever records happen to survive.
  EXPECT_EQ(monitor.failover_episodes(), 0u);
  EXPECT_TRUE(std::isnan(monitor.failover_mttr()));

  // The monitor keeps sampling normally after the gap.
  system.engine().run_until(system.engine().now() + 5.0);
  monitor.sample_now();
  EXPECT_GE(monitor.store().row_count(), 3u);
}

// The alert-flap rate is a first-class dashboard column.
TEST(HealthMonitor, DashboardShowsFlapRateColumn) {
  auto system = make_system(17);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));
  obs::HealthMonitor monitor(system);
  monitor.sample_now();
  EXPECT_NE(monitor.dashboard().find("slo.flaps_per_hour"), std::string::npos);
  // A quiet cluster has not flapped.
  EXPECT_EQ(monitor.slo().total_transitions(), 0u);
}

// --- SlownessScorer degenerate fleets ----------------------------------------
// Peer-relative scoring is only meaningful relative to peers: the degenerate
// shapes (tiny fleet, perfectly uniform baseline, uniformly slow fleet) must
// never produce a flag the fleet shape cannot justify.

TEST(SlownessScorer, SinglePeerFleetNeverFlags) {
  obs::SlownessScorer scorer;
  for (double t = 0.0; t <= 40.0; t += 1.0) {
    scorer.add_sample(1, obs::SlownessMetric::kProbe, 1000.0);  // absurd RTT
    scorer.evaluate(t);
  }
  // No peers to be relative to: the absurd latency is unscoreable, not slow.
  EXPECT_FALSE(scorer.flagged(1));
  EXPECT_DOUBLE_EQ(scorer.score(1), 0.0);
  EXPECT_EQ(scorer.flagged_count(), 0u);
}

TEST(SlownessScorer, MadZeroUniformBaselineFlagsOnlyTheOutlier) {
  obs::SlownessScorer scorer;
  // Five identical peers: fleet MAD is exactly 0 and must be floored, not
  // divided by. One outlier at 4x.
  for (std::uint64_t p = 1; p <= 5; ++p) {
    scorer.add_sample(p, obs::SlownessMetric::kProbe, 1.0);
  }
  scorer.add_sample(6, obs::SlownessMetric::kProbe, 4.0);

  scorer.evaluate(0.0);
  EXPECT_FALSE(scorer.flagged(6));  // sustain window not elapsed yet
  EXPECT_GT(scorer.score(6), 4.0);  // but the score is already over z_flag
  scorer.evaluate(10.0);
  EXPECT_TRUE(scorer.flagged(6));
  EXPECT_EQ(scorer.flagged_count(), 1u);
  for (std::uint64_t p = 1; p <= 5; ++p) {
    EXPECT_FALSE(scorer.flagged(p));
    EXPECT_DOUBLE_EQ(scorer.score(p), 0.0);
  }
}

TEST(SlownessScorer, UniformlySlowFleetFlagsNobody) {
  obs::SlownessScorer scorer;
  // The whole fleet is 4x slower than any reasonable absolute expectation —
  // a load shift, not a gray failure. Peer-relative z stays 0 for everyone.
  for (double t = 0.0; t <= 40.0; t += 1.0) {
    for (std::uint64_t p = 1; p <= 6; ++p) {
      scorer.add_sample(p, obs::SlownessMetric::kProbe, 4.0);
    }
    scorer.evaluate(t);
  }
  EXPECT_EQ(scorer.flagged_count(), 0u);
  for (std::uint64_t p = 1; p <= 6; ++p) {
    EXPECT_DOUBLE_EQ(scorer.score(p), 0.0);
  }
}

// --- Overlapping failover episodes -------------------------------------------
// MTTR episodes are gm.fail(acting GL) -> gl.reconciled. When a second GL
// dies before the first outage reconciles, that is one continuous outage:
// the scanner must not fabricate a second episode or merge in samples from
// non-GL deaths. Records are injected synthetically at exact virtual times.

namespace {
void record_at(core::SnoozeSystem& system, double t, std::string actor,
               std::string kind, std::string detail = "") {
  system.engine().schedule_at(t, [&system, actor = std::move(actor),
                                  kind = std::move(kind),
                                  detail = std::move(detail)] {
    system.trace().record(actor, kind, detail);
  });
}
}  // namespace

TEST(HealthMonitor, ChainedGlDeathsAreOneEpisodeNotTwo) {
  auto system = make_system(21);
  record_at(system, 1.0, "gm-A", "gm.elected_gl", "epoch=1");
  record_at(system, 10.0, "gm-A", "gm.fail");       // outage opens at 10
  record_at(system, 12.0, "gm-B", "gm.fail");       // non-GL death: ignored
  record_at(system, 14.0, "gm-C", "gm.elected_gl", "epoch=2");
  record_at(system, 15.0, "gm-C", "gm.fail");       // new GL dies mid-outage
  record_at(system, 18.0, "gm-D", "gm.elected_gl", "epoch=3");
  record_at(system, 20.0, "gm-D", "gl.reconciled", "gms=3");
  system.engine().run_until(30.0);

  obs::HealthMonitor monitor(system);
  monitor.sample_now();
  // One continuous outage, one sample: first GL death -> reconciliation.
  EXPECT_EQ(monitor.failover_episodes(), 1u);
  EXPECT_DOUBLE_EQ(monitor.failover_mttr(), 10.0);
}

TEST(HealthMonitor, SequentialFailoversYieldDistinctSamples) {
  auto system = make_system(22);
  record_at(system, 1.0, "gm-A", "gm.elected_gl", "epoch=1");
  record_at(system, 10.0, "gm-A", "gm.fail");
  record_at(system, 16.0, "gm-B", "gm.elected_gl", "epoch=2");
  record_at(system, 18.0, "gm-B", "gl.reconciled", "gms=3");  // sample: 8 s
  record_at(system, 40.0, "gm-B", "gm.fail");
  record_at(system, 45.0, "gm-C", "gm.elected_gl", "epoch=3");
  record_at(system, 50.0, "gm-C", "gl.reconciled", "gms=3");  // sample: 10 s
  system.engine().run_until(55.0);

  obs::HealthMonitor monitor(system);
  monitor.sample_now();
  EXPECT_EQ(monitor.failover_episodes(), 2u);
  EXPECT_DOUBLE_EQ(monitor.failover_mttr(), 9.0);

  // A later non-GL death opens nothing: the sample set is unchanged.
  record_at(system, 60.0, "gm-A", "gm.fail");
  system.engine().run_until(70.0);
  monitor.sample_now();
  EXPECT_EQ(monitor.failover_episodes(), 2u);
  EXPECT_DOUBLE_EQ(monitor.failover_mttr(), 9.0);
}

}  // namespace
