// Metric/SLI naming lint (tier-1): after exercising a live deployment —
// submissions, a GL failover, health sampling — walk everything that actually
// registered and enforce the conventions the dashboards and the incident
// engine rely on:
//
//   - metric names are dotted lowercase "subsystem.metric" (no per-node
//     names like "gm-1.heartbeats": node identity belongs in trace records
//     and spans, not in metric-name cardinality);
//   - the total metric count stays bounded (all registrations are string
//     literals; a per-VM or per-node leak would blow past the ceiling);
//   - SLI names are snake_case, sorted, and unique;
//   - every SLI HealthMonitor::sli_names() promises is actually produced by
//     evaluate_slos() (it appears in SloEvaluator::status() after sampling),
//     and nothing undeclared is fed to the evaluator;
//   - every declared SLI has a positive threshold configured in SloConfig;
//   - every GM/GL counter equals the trace records emitted beside it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "chaos/injector.hpp"
#include "core/snooze.hpp"
#include "obs/health_monitor.hpp"

namespace {

using namespace snooze;

bool is_snake(const std::string& s) {
  if (s.empty() || std::islower(static_cast<unsigned char>(s[0])) == 0) {
    return false;
  }
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::islower(c) != 0 || std::isdigit(c) != 0 || c == '_';
  });
}

/// "subsystem.metric" (two or more dotted snake_case components).
bool is_dotted_metric(const std::string& name) {
  std::size_t start = 0;
  int components = 0;
  while (true) {
    const std::size_t dot = name.find('.', start);
    const std::string part = name.substr(start, dot - start);
    if (!is_snake(part)) return false;
    ++components;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return components >= 2;
}

class MetricsLint : public ::testing::Test {
 protected:
  void SetUp() override {
    core::SystemSpec spec;
    spec.entry_points = 2;
    spec.group_managers = 2;
    spec.local_controllers = 6;
    spec.seed = 77;
    system_ = std::make_unique<core::SnoozeSystem>(spec);
    system_->start();
    ASSERT_TRUE(system_->run_until_stable(300.0));
    monitor_ = std::make_unique<obs::HealthMonitor>(*system_);
    monitor_->start();

    // Exercise the major subsystems so their metrics register: submissions,
    // then a GL failover mid-run.
    std::vector<core::VmDescriptor> vms;
    for (int i = 0; i < 8; ++i) vms.push_back(system_->make_vm({0.1, 0.1, 0.1}));
    system_->client().submit_all(vms, 0.5);
    system_->engine().run_until(system_->engine().now() + 20.0);
    system_->fail_gl();
    system_->engine().run_until(system_->engine().now() + 60.0);
    monitor_->sample_now();
  }

  std::unique_ptr<core::SnoozeSystem> system_;
  std::unique_ptr<obs::HealthMonitor> monitor_;
};

TEST_F(MetricsLint, MetricNamesAreDottedLowercaseWithBoundedCardinality) {
  const auto& reg = system_->telemetry().metrics();
  std::size_t total = 0;
  auto check = [&](const std::string& name) {
    ++total;
    EXPECT_TRUE(is_dotted_metric(name))
        << "metric name violates subsystem.metric convention: " << name;
    EXPECT_EQ(name.find('-'), std::string::npos)
        << "per-node identity leaked into a metric name: " << name;
  };
  for (const auto& [name, c] : reg.counters()) check(name);
  for (const auto& [name, g] : reg.gauges()) check(name);
  for (const auto& [name, h] : reg.histograms()) check(name);

  EXPECT_GT(total, 10u) << "the run registered suspiciously few metrics";
  // All registrations are compile-time literals; anything near this ceiling
  // means a name is being synthesized per node/VM/run.
  EXPECT_LT(total, 200u) << "unbounded metric cardinality";
}

TEST_F(MetricsLint, SliNamesAreSnakeCaseSortedAndUnique) {
  const auto names = obs::HealthMonitor::sli_names();
  EXPECT_FALSE(names.empty());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  for (const auto& name : names) {
    EXPECT_TRUE(is_snake(name)) << "SLI name is not snake_case: " << name;
  }
}

TEST_F(MetricsLint, EverySloReferencedSliIsProducedAndNothingUndeclared) {
  const auto declared = obs::HealthMonitor::sli_names();
  const auto& status = monitor_->slo().status();
  // evaluate_slos() fed the evaluator at least once per declared SLI (NaN
  // "no data" still registers the SLI), so a declared-but-never-produced
  // SLI shows up as a missing key here.
  for (const auto& name : declared) {
    EXPECT_TRUE(status.count(name) != 0)
        << "SLI declared by sli_names() but never produced: " << name;
  }
  for (const auto& [name, st] : status) {
    EXPECT_TRUE(std::binary_search(declared.begin(), declared.end(), name))
        << "SLI fed to the evaluator but missing from sli_names(): " << name;
    EXPECT_GT(st.threshold, 0.0) << "SLI has no positive threshold: " << name;
  }
}

// The registry is the only tally of GM and GL events, so nothing else
// catches a dropped bump: each counter below must equal the trace records
// emitted beside it (each kind comes from exactly one site). The run turns on
// every path they count: energy savings (suspend, wake), ACO reconfiguration
// (migrations), a gray LC (probation, quarantine, reinstatement) and GM
// (slow flag), an isolated GL (election, stepdown, GM failure, reconcile)
// and an LC crash.
TEST(MetricsTally, EveryGmAndGlCounterMatchesItsTraceRecords) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 5;  // the GL baselines a slow GM against >= 3 peers
  spec.local_controllers = 12;
  spec.seed = 4;  // every pair below is non-zero at this seed
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 20.0;
  spec.config.consolidation = core::ConsolidationKind::kAco;
  spec.config.reconfiguration_period = 60.0;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  std::vector<core::VmDescriptor> vms;
  for (int i = 0; i < 10; ++i) {
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, i % 2 == 0 ? 90.0 : 0.0));
  }
  system.client().submit_all(vms, 1.0);
  const chaos::FaultSchedule schedule = chaos::parse_script(
      "duration 300\n"
      "10 slow lc 1 factor=4 #1\n"
      "130 unslow #1\n"
      "15 slow gm 1 factor=4 #2\n"
      "95 unslow #2\n"
      "100 isolate gl #3\n"
      "150 heal #3\n"
      "200 crash lc 5 #4\n");
  chaos::ChaosInjector injector(system, schedule);
  injector.start();
  system.engine().run_until(system.engine().now() + 180.0);
  std::vector<core::VmDescriptor> late;
  for (int i = 0; i < 6; ++i) late.push_back(system.make_vm({0.3, 0.3, 0.3}));
  system.client().submit_all(late, 1.0);
  system.engine().run_until(system.engine().now() + 200.0);

  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"gm.suspends", "gm.suspend"},
      {"gm.wakeups", "gm.wakeup"},
      {"gm.reconfigurations", "gm.reconfiguration"},
      {"gm.migrations_completed", "gm.migration_done"},
      {"gm.placements_ok", "gm.vm_placed"},
      {"gm.lc_failures_detected", "gm.lc_failed"},
      {"gm.lc_probations", "gm.lc_probation"},
      {"gm.lc_quarantines", "gm.lc_quarantined"},
      {"gm.lc_reinstatements", "gm.lc_reinstated"},
      {"gm.elections_won", "gm.elected_gl"},
      {"gl.stepdowns", "gm.stepdown"},
      {"gl.reconciles", "gl.reconciled"},
      {"gl.gm_failures_detected", "gl.gm_failed"},
      {"gl.gm_slow_flagged", "gl.gm_slow"},
  };
  for (const auto& [counter, kind] : pairs) {
    EXPECT_EQ(metrics.value(counter), system.trace().count(kind)) << counter;
    EXPECT_GT(metrics.value(counter), 0u) << counter << ": the run no longer exercises it";
  }
}

}  // namespace
