// Incident engine: evidence extraction, episode segmentation, hypothesis
// ranking, ground-truth scoring, and end-to-end passivity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/ground_truth.hpp"
#include "chaos/injector.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/system.hpp"
#include "obs/causality.hpp"
#include "obs/incident.hpp"

namespace {

using namespace snooze;

sim::TraceRecord rec(double t, const char* actor, const char* kind,
                     const char* detail = "") {
  return sim::TraceRecord{t, actor, kind, detail};
}

// --- evidence extraction ----------------------------------------------------

TEST(Causality, ChaosRecordsAreNeverEvidence) {
  const std::vector<sim::TraceRecord> records = {
      rec(1.0, "chaos", "chaos.start", "2 actions"),
      rec(5.0, "chaos", "chaos.crash", "gm-1"),
      rec(5.0, "gm-1", "gm.fail"),
      rec(9.0, "chaos", "chaos.heal", "final"),
  };
  const auto evidence = obs::collect_evidence(records, {});
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].kind, "gm.fail");
  EXPECT_EQ(evidence[0].implies, obs::FaultClass::kCrash);
  EXPECT_EQ(evidence[0].target, "gm-1");
}

TEST(Causality, DeathLogBlamesTheCrashingActor) {
  const auto evidence =
      obs::collect_evidence({rec(3.0, "lc-004", "lc.fail")}, {});
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_EQ(evidence[0].implies, obs::FaultClass::kCrash);
  EXPECT_EQ(evidence[0].target, "lc-004");
  EXPECT_GT(evidence[0].weight, 0.0);
  EXPECT_TRUE(evidence[0].opener);
}

TEST(Causality, ElectionDisambiguatesCrashFromPartition) {
  // Crash: the deposed leader logged its own death before the re-election.
  {
    const auto evidence = obs::collect_evidence(
        {rec(1.0, "gm-0", "gm.elected_gl", "epoch=1"),
         rec(10.0, "gm-0", "gm.fail"),
         rec(14.0, "gm-1", "gm.elected_gl", "epoch=2")},
        {});
    ASSERT_EQ(evidence.size(), 2u);
    EXPECT_EQ(evidence[1].kind, "gm.elected_gl");
    EXPECT_EQ(evidence[1].implies, obs::FaultClass::kCrash);
    EXPECT_EQ(evidence[1].target, "gm-0");
  }
  // Partition: the old leader vanished without a death log — it was cut
  // off, not killed, so the election implies a network fault.
  {
    const auto evidence = obs::collect_evidence(
        {rec(1.0, "gm-0", "gm.elected_gl", "epoch=1"),
         rec(14.0, "gm-1", "gm.elected_gl", "epoch=2")},
        {});
    ASSERT_EQ(evidence.size(), 1u);
    EXPECT_EQ(evidence[0].implies, obs::FaultClass::kNetwork);
    EXPECT_EQ(evidence[0].target, "gm-0");
  }
  // The initial election implicates nobody.
  {
    const auto evidence = obs::collect_evidence(
        {rec(1.0, "gm-0", "gm.elected_gl", "epoch=1")}, {});
    EXPECT_TRUE(evidence.empty());
  }
}

TEST(Causality, LadderRecordsResolveAddressesThroughTheMap) {
  const obs::AddressNames names = {{17, "lc-003"}};
  const auto evidence = obs::collect_evidence(
      {rec(20.0, "gm-0", "gm.lc_probation", "lc=17"),
       rec(40.0, "gm-0", "gm.lc_quarantined", "lc=99")},
      names);
  ASSERT_EQ(evidence.size(), 2u);
  EXPECT_EQ(evidence[0].implies, obs::FaultClass::kFailSlow);
  EXPECT_EQ(evidence[0].target, "lc-003");
  EXPECT_EQ(evidence[1].target, "addr:99");  // unmapped degrades, not drops
}

// --- episode segmentation ---------------------------------------------------

TEST(Incident, QuietWindowSplitsEpisodesAndClearsNeverOpen) {
  const std::vector<sim::TraceRecord> records = {
      rec(5.0, "lc-001", "lc.fail"),
      rec(10.0, "gm-0", "gm.lc_failed"),
      // 50 s of silence > quiet_close_s 30: next signal opens episode 2.
      rec(60.0, "lc-002", "lc.fail"),
      // A bare recovery marker after another quiet window must NOT open
      // a third episode.
      rec(120.0, "lc-001", "lc.restart"),
  };
  const auto report = obs::analyze_incidents(records, nullptr, 150.0, {});
  ASSERT_EQ(report.episodes.size(), 2u);
  EXPECT_EQ(report.episodes[0].opened, 5.0);
  EXPECT_EQ(report.episodes[0].closed, 10.0);
  EXPECT_EQ(report.episodes[0].opened_by, "lc.fail");
  EXPECT_EQ(report.episodes[1].opened, 60.0);
  EXPECT_FALSE(report.episodes[1].open_at_end);
}

TEST(Incident, SignalsInsideQuietWindowJoinOneEpisode) {
  const std::vector<sim::TraceRecord> records = {
      rec(5.0, "lc-001", "lc.fail"),
      rec(25.0, "gm-0", "gm.lc_probation", "lc=3"),
      rec(45.0, "lc-001", "lc.restart"),
  };
  const auto report = obs::analyze_incidents(records, nullptr, 200.0, {});
  ASSERT_EQ(report.episodes.size(), 1u);
  EXPECT_EQ(report.episodes[0].evidence.size(), 3u);
  EXPECT_EQ(report.episodes[0].closed, 45.0);
}

TEST(Incident, HypothesesRankByVoteMassWithAnonymousFallback) {
  // Quarantine (3) + probation (2) on one LC outweigh a GM death log (3).
  const std::vector<sim::TraceRecord> records = {
      rec(5.0, "gm-1", "gm.fail"),
      rec(8.0, "gm-0", "gm.lc_probation", "lc=7"),
      rec(20.0, "gm-0", "gm.lc_quarantined", "lc=7"),
  };
  const obs::AddressNames names = {{7, "lc-002"}};
  const auto report = obs::analyze_incidents(records, nullptr, 100.0, names);
  ASSERT_EQ(report.episodes.size(), 1u);
  const auto& hyps = report.episodes[0].hypotheses;
  ASSERT_EQ(hyps.size(), 2u);
  EXPECT_EQ(hyps[0].fault_class, obs::FaultClass::kFailSlow);
  EXPECT_EQ(hyps[0].target, "lc-002");
  EXPECT_DOUBLE_EQ(hyps[0].vote_mass, 5.0);
  EXPECT_EQ(hyps[1].target, "gm-1");
  EXPECT_NEAR(hyps[0].confidence + hyps[1].confidence, 1.0, 1e-9);

  // An SLO-alert-only episode has no identity evidence: it falls back to a
  // single anonymous overload hypothesis instead of staying silent.
  const auto weak = obs::analyze_incidents(
      {rec(5.0, "health", "slo.alert", "sli=submit_p99 value=12 threshold=10")},
      nullptr, 50.0, {});
  ASSERT_EQ(weak.episodes.size(), 1u);
  ASSERT_EQ(weak.episodes[0].hypotheses.size(), 1u);
  EXPECT_EQ(weak.episodes[0].hypotheses[0].fault_class,
            obs::FaultClass::kOverload);
  EXPECT_TRUE(weak.episodes[0].hypotheses[0].target.empty());
}

TEST(Incident, InvariantViolationOpensAnEpisode) {
  const auto report = obs::analyze_incidents(
      {rec(9.0, "invariants", "invariant.violation", "split-brain: 2 leaders")},
      nullptr, 50.0, {});
  ASSERT_EQ(report.episodes.size(), 1u);
  EXPECT_EQ(report.episodes[0].opened_by, "invariant.violation");
}

// --- ground truth + scoring -------------------------------------------------

/// The injector's ground truth for one scripted run on a fresh 3/9/2
/// cluster, with times relative to injection start.
struct InjectedRun {
  std::vector<chaos::InjectedFault> faults;
  std::size_t faults_injected = 0;
  std::string leader;  ///< the GL's GM at injection start ("gm-1")
  double final_heal = 0.0;
};

InjectedRun inject(const std::string& script) {
  core::SystemSpec spec;
  spec.group_managers = 3;
  spec.local_controllers = 9;
  spec.entry_points = 2;
  core::SnoozeSystem system(spec);
  system.start();
  system.run_until_stable(30.0);
  InjectedRun run;
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (system.group_managers()[i]->is_leader()) run.leader = "gm-" + std::to_string(i);
  }
  const chaos::FaultSchedule schedule = chaos::parse_script(script);
  chaos::ChaosInjector injector(system, schedule);
  const double t0 = system.engine().now();
  injector.start();
  system.engine().run_until(t0 + schedule.duration + 1.0);
  injector.heal_all_remaining();
  run.final_heal = system.engine().now() - t0;
  run.faults = injector.faults();
  for (auto& f : run.faults) {
    f.at -= t0;
    f.cleared -= t0;
  }
  run.faults_injected = injector.faults_injected();
  return run;
}

TEST(GroundTruth, InjectorRecordsResolvedTargetsAndTheFinalHeal) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 crash gl #1\n"
      "9 slow lc 1 factor=4 #2\n"
      "20 recover #1\n"
      "25 crash lc 2\n"
      "30 crash lc 2\n");  // skipped: lc-2 is already down
  ASSERT_FALSE(run.leader.empty());
  ASSERT_EQ(run.faults.size(), 3u);
  EXPECT_EQ(run.faults_injected, 3u);
  EXPECT_EQ(run.faults[0].fault_class, obs::FaultClass::kCrash);
  EXPECT_EQ(run.faults[0].target, run.leader);  // resolved GL, not "gl"
  EXPECT_DOUBLE_EQ(run.faults[0].at, 5.0);
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 20.0);
  EXPECT_EQ(run.faults[1].fault_class, obs::FaultClass::kFailSlow);
  EXPECT_EQ(run.faults[1].target, "lc-1");
  EXPECT_EQ(run.faults[2].target, "lc-2");
  // Windows still open at the horizon close with the final heal.
  EXPECT_DOUBLE_EQ(run.faults[1].cleared, run.final_heal);
  EXPECT_DOUBLE_EQ(run.faults[2].cleared, run.final_heal);
}

TEST(GroundTruth, GlobalLossIsOneWindowClosedByDropZero) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 drop 0.02\n"
      "10 drop 0.03\n"  // a raise inside the window: counted, same window
      "15 drop 0\n");
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults_injected, 2u);
  EXPECT_EQ(run.faults[0].fault_class, obs::FaultClass::kNetwork);
  EXPECT_TRUE(run.faults[0].target.empty());
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 15.0);
}

TEST(GroundTruth, GlIsolationNamesTheLeaderAndScoresItsHypothesis) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 isolate gl #1\n"
      "20 heal #1\n");
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].target, run.leader);
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 20.0);

  obs::IncidentReport report;
  obs::IncidentEpisode ep;
  ep.opened = 6.0;
  ep.closed = 25.0;
  obs::Hypothesis h;
  h.fault_class = obs::FaultClass::kNetwork;
  h.target = run.leader;
  h.first_evidence = 8.0;
  ep.hypotheses = {h};
  report.episodes.push_back(ep);
  const auto score = chaos::score_attribution(report, run.faults);
  EXPECT_EQ(score.true_positives, 1u);
  EXPECT_EQ(score.false_positives, 0u);
}

TEST(GroundTruth, PairHealClosesItsIsolationWindow) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 isolate lc 2 #1\n"
      "20 heal #1\n");
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].target, "lc-2");
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 20.0);
}

TEST(GroundTruth, UnlinkNamingTheEndpointsSwappedClosesTheLinkWindow) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 link gm 0 lc 3 drop=0.3\n"
      "20 unlink lc 3 gm 0\n");
  ASSERT_EQ(run.faults.size(), 1u);
  EXPECT_EQ(run.faults[0].fault_class, obs::FaultClass::kNetwork);
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 20.0);
}

TEST(GroundTruth, OverlappingSlowAndStealCloseTheirOwnWindows) {
  const InjectedRun run = inject(
      "duration 40\n"
      "5 slow lc 6 factor=3 #1\n"
      "8 steal lc 6 frac=0.3 #2\n"
      "20 unslow #1\n"
      "30 unsteal #2\n");
  ASSERT_EQ(run.faults.size(), 2u);
  EXPECT_EQ(run.faults[0].kind, "chaos.slow");
  EXPECT_DOUBLE_EQ(run.faults[0].cleared, 20.0);
  EXPECT_EQ(run.faults[1].kind, "chaos.steal");
  EXPECT_DOUBLE_EQ(run.faults[1].cleared, 30.0);
}

TEST(GroundTruth, ScoringMatchesPaddedNamesAndAnnotatesLatency) {
  obs::IncidentReport report;
  obs::IncidentEpisode ep;
  ep.id = 1;
  ep.opened = 10.0;
  ep.closed = 40.0;
  obs::Hypothesis good;
  good.fault_class = obs::FaultClass::kFailSlow;
  good.target = "lc-001";  // system name; ground truth says "lc-1"
  good.first_evidence = 25.0;
  obs::Hypothesis bogus;
  bogus.fault_class = obs::FaultClass::kCrash;
  bogus.target = "gm-0";
  bogus.first_evidence = 12.0;
  ep.hypotheses = {good, bogus};
  report.episodes.push_back(ep);

  const std::vector<chaos::InjectedFault> faults = {
      {9.0, 60.0, obs::FaultClass::kFailSlow, "lc-1", "chaos.slow"},
      {200.0, 220.0, obs::FaultClass::kCrash, "gm-0", "chaos.crash"},
  };
  const auto score = chaos::score_attribution(report, faults);
  EXPECT_EQ(score.true_positives, 1u);
  // The gm-0 crash exists but far outside the episode window: blaming it
  // here is a false positive.
  EXPECT_EQ(score.false_positives, 1u);
  EXPECT_EQ(score.faults_total, 2u);
  EXPECT_EQ(score.faults_recalled, 1u);
  EXPECT_DOUBLE_EQ(score.precision(), 0.5);
  EXPECT_DOUBLE_EQ(score.recall(), 0.5);
  const auto& h = report.episodes[0].hypotheses[0];
  EXPECT_EQ(h.matched_fault, 0);
  EXPECT_DOUBLE_EQ(h.detection_latency_s, 16.0);  // 25 - 9
}

TEST(GroundTruth, AnonymousHypothesesAreUnscored) {
  obs::IncidentReport report;
  obs::IncidentEpisode ep;
  ep.opened = 0.0;
  ep.closed = 10.0;
  obs::Hypothesis weak;
  weak.fault_class = obs::FaultClass::kOverload;
  ep.hypotheses = {weak};
  report.episodes.push_back(ep);
  const auto score = chaos::score_attribution(report, {});
  EXPECT_EQ(score.true_positives + score.false_positives, 0u);
  EXPECT_DOUBLE_EQ(score.precision(), 1.0);
}

// --- end to end -------------------------------------------------------------

chaos::ChaosRunConfig incident_cfg() {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 2020;
  cfg.topology = {2, 8, 1};
  cfg.vms = 6;
  cfg.incidents = true;
  return cfg;
}

constexpr const char* kScript =
    "duration 240\n"
    "8 crash gm 1 #1\n"
    "70 recover #1\n"
    "5 slow lc 1 factor=4 #2\n"
    "120 unslow #2\n";

TEST(Incident, EndToEndAttributionIsExactOnTheGoldenScenario) {
  const auto result =
      chaos::run_chaos_schedule(incident_cfg(), chaos::parse_script(kScript));
  ASSERT_TRUE(result.ok()) << result.report;
  EXPECT_EQ(result.injected_faults_labeled, 2u);
  EXPECT_DOUBLE_EQ(result.attribution_precision, 1.0);
  EXPECT_DOUBLE_EQ(result.attribution_recall, 1.0);
  EXPECT_FALSE(result.incident_table.empty());
  EXPECT_NE(result.incident_csv.find("fault_class"), std::string::npos);
}

TEST(Incident, SameSeedReportsAreByteIdentical) {
  const auto a =
      chaos::run_chaos_schedule(incident_cfg(), chaos::parse_script(kScript));
  const auto b =
      chaos::run_chaos_schedule(incident_cfg(), chaos::parse_script(kScript));
  EXPECT_EQ(a.incident_table, b.incident_table);
  EXPECT_EQ(a.incident_csv, b.incident_csv);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(Incident, EngineIsPassiveSameHashWithAndWithoutIt) {
  auto on = incident_cfg();
  auto off = incident_cfg();
  off.incidents = false;
  const auto with =
      chaos::run_chaos_schedule(on, chaos::parse_script(kScript));
  const auto without =
      chaos::run_chaos_schedule(off, chaos::parse_script(kScript));
  EXPECT_EQ(with.trace_hash, without.trace_hash);
}

TEST(Incident, PerfettoSpliceKeepsJsonShapeAndAddsIncidentLane) {
  obs::IncidentReport report;
  obs::IncidentEpisode ep;
  ep.id = 1;
  ep.opened = 2.0;
  ep.closed = 5.0;
  obs::Hypothesis h;
  h.fault_class = obs::FaultClass::kCrash;
  h.target = "gm-1";
  ep.hypotheses = {h};
  obs::Evidence e;
  e.time = 2.0;
  e.kind = "gm.fail";
  e.target = "gm-1";
  e.weight = 3.0;
  ep.evidence = {e};
  report.episodes.push_back(ep);

  const std::string empty = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  const std::string spliced = obs::chrome_trace_with_incidents(empty, report);
  EXPECT_EQ(spliced.back(), '}');
  EXPECT_NE(spliced.find("incident#1 crash gm-1"), std::string::npos);
  EXPECT_NE(spliced.find("\"ph\":\"i\""), std::string::npos);
  // No leading comma when the base had no events.
  EXPECT_EQ(spliced.find("[,"), std::string::npos);
  // Non-trace input passes through untouched.
  EXPECT_EQ(obs::chrome_trace_with_incidents("not json", report), "not json");
}

}  // namespace
