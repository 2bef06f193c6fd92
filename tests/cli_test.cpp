// Tests for the CLI library: command parsing, every command's behaviour, and
// the Graphviz hierarchy exporter.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "cli/commands.hpp"
#include "cli/dot_export.hpp"

namespace {

using namespace snooze;
using namespace snooze::cli;

std::unique_ptr<CliSession> session() {
  return CliSession::boot(/*gms=*/2, /*lcs=*/4, /*seed=*/42, /*energy=*/false);
}

TEST(Tokenize, SplitsOnWhitespace) {
  EXPECT_EQ(tokenize("a bb  ccc"), (std::vector<std::string>{"a", "bb", "ccc"}));
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("   ").empty());
}

TEST(Cli, BootBringsUpHierarchy) {
  auto s = session();
  EXPECT_NE(s->system().leader(), nullptr);
  EXPECT_EQ(s->system().assigned_lc_count(), 4u);
}

TEST(Cli, EmptyLineIsNoop) {
  auto s = session();
  const auto r = s->execute("");
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.output.empty());
}

TEST(Cli, UnknownCommandFails) {
  auto s = session();
  const auto r = s->execute("frobnicate");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.output.find("unknown command"), std::string::npos);
}

TEST(Cli, HelpListsCommands) {
  const std::string help = CliSession::help();
  for (const char* cmd : {"submit", "run", "hierarchy", "export-dot", "stats", "fail"}) {
    EXPECT_NE(help.find(cmd), std::string::npos) << cmd;
  }
}

TEST(Cli, QuitSetsFlag) {
  auto s = session();
  EXPECT_TRUE(s->execute("quit").quit);
  EXPECT_TRUE(s->execute("exit").quit);
  EXPECT_FALSE(s->execute("help").quit);
}

TEST(Cli, SubmitPlacesVms) {
  auto s = session();
  const auto r = s->execute("submit 3");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("3 placed"), std::string::npos);
  EXPECT_EQ(s->system().running_vm_count(), 3u);
}

TEST(Cli, SubmitValidatesArguments) {
  auto s = session();
  EXPECT_FALSE(s->execute("submit").ok);
  EXPECT_FALSE(s->execute("submit 0").ok);
}

TEST(Cli, SubmitWithLifetimeExpires) {
  auto s = session();
  ASSERT_TRUE(s->execute("submit 2 0.2 0.2 0.2 10").ok);
  ASSERT_TRUE(s->execute("run 120").ok);
  EXPECT_EQ(s->system().running_vm_count(), 0u);
}

TEST(Cli, RunAdvancesVirtualTime) {
  auto s = session();
  const double before = s->system().engine().now();
  ASSERT_TRUE(s->execute("run 42.5").ok);
  EXPECT_NEAR(s->system().engine().now(), before + 42.5, 1e-9);
  EXPECT_FALSE(s->execute("run").ok);
  EXPECT_FALSE(s->execute("run -5").ok);
}

TEST(Cli, HierarchyShowsComponents) {
  auto s = session();
  const auto r = s->execute("hierarchy");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("GL:"), std::string::npos);
  EXPECT_NE(r.output.find("LCs: 4"), std::string::npos);
}

TEST(Cli, StatsReportsCounters) {
  auto s = session();
  s->execute("submit 2");
  const auto r = s->execute("stats");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("VMs running: 2"), std::string::npos);
  EXPECT_NE(r.output.find("energy:"), std::string::npos);
}

TEST(Cli, FailGlTriggersFailover) {
  auto s = session();
  const auto r = s->execute("fail gl");
  EXPECT_TRUE(r.ok);
  s->execute("run 60");
  EXPECT_NE(s->system().leader(), nullptr);  // successor elected
}

TEST(Cli, FailoverShowReportsEpochsAndFences) {
  auto s = session();
  const auto before = s->execute("failover show");
  ASSERT_TRUE(before.ok);
  // Initial leadership is election epoch 1.
  EXPECT_NE(before.output.find("GL epoch=1"), std::string::npos) << before.output;
  EXPECT_NE(before.output.find("lease="), std::string::npos);
  ASSERT_TRUE(s->execute("fail gl").ok);
  s->execute("run 60");
  const auto after = s->execute("failover show");
  ASSERT_TRUE(after.ok);
  // The successor holds a newer epoch and finished exactly one extra
  // reconciliation (the boot-time one plus the failover one).
  EXPECT_NE(after.output.find("GL epoch=2"), std::string::npos) << after.output;
  EXPECT_NE(after.output.find("current GL epoch (failover.epoch): 2"),
            std::string::npos)
      << after.output;
  EXPECT_NE(after.output.find("2 reconciliations"), std::string::npos) << after.output;
}

TEST(Cli, FailoverValidatesSubcommand) {
  auto s = session();
  EXPECT_FALSE(s->execute("failover").ok);
  EXPECT_FALSE(s->execute("failover frob").ok);
}

TEST(Cli, FailValidatesTargets) {
  auto s = session();
  EXPECT_FALSE(s->execute("fail").ok);
  EXPECT_FALSE(s->execute("fail gm").ok);
  EXPECT_FALSE(s->execute("fail gm 99").ok);
  EXPECT_FALSE(s->execute("fail lc 99").ok);
  EXPECT_FALSE(s->execute("fail disk 0").ok);
}

TEST(Cli, FailLcKillsItsVms) {
  auto s = session();
  s->execute("submit 4 0.5");
  const std::size_t before = s->system().running_vm_count();
  ASSERT_EQ(before, 4u);
  // Find an LC index hosting VMs.
  std::size_t victim = 0;
  for (std::size_t i = 0; i < s->system().local_controllers().size(); ++i) {
    if (s->system().local_controllers()[i]->vm_count() > 0) {
      victim = i;
      break;
    }
  }
  EXPECT_TRUE(s->execute("fail lc " + std::to_string(victim)).ok);
  s->execute("run 30");
  EXPECT_LT(s->system().running_vm_count(), before);
}

// --- dot export -------------------------------------------------------------------

TEST(DotExport, ContainsEveryComponent) {
  auto s = session();
  s->execute("submit 2");
  const std::string dot = hierarchy_dot(s->system());
  EXPECT_NE(dot.find("digraph snooze"), std::string::npos);
  EXPECT_NE(dot.find("GL "), std::string::npos);
  EXPECT_NE(dot.find("GM "), std::string::npos);
  EXPECT_NE(dot.find("EP "), std::string::npos);
  EXPECT_NE(dot.find("lc-000"), std::string::npos);
  EXPECT_NE(dot.find("lc-003"), std::string::npos);
  // Balanced braces / proper closing.
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}\n"), std::string::npos);
}

TEST(DotExport, ShowsEdgesFromGlToGms) {
  auto s = session();
  const std::string dot = hierarchy_dot(s->system());
  const std::string gl = s->system().leader()->name();
  EXPECT_NE(dot.find("\"" + gl + "\" -> "), std::string::npos);
}

TEST(DotExport, MarksJoiningLcsWhenNoGl) {
  // A deployment with a single GM: it becomes GL, LCs can never join.
  auto s = CliSession::boot(1, 2, 42, false);
  const std::string dot = hierarchy_dot(s->system());
  EXPECT_NE(dot.find("(joining)"), std::string::npos);
}

TEST(DotExport, CommandWritesFile) {
  auto s = session();
  const std::string path = testing::TempDir() + "/snooze_hierarchy.dot";
  const auto r = s->execute("export-dot " + path);
  EXPECT_TRUE(r.ok);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "digraph snooze {");
  std::remove(path.c_str());
}

TEST(DotExport, CommandWithoutFilePrints) {
  auto s = session();
  const auto r = s->execute("export-dot");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("digraph"), std::string::npos);
}

TEST(Cli, MetricsShowListsCounters) {
  auto s = session();
  s->execute("submit 2");
  const auto r = s->execute("metrics show");
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.output.find("client.successes"), std::string::npos);
  EXPECT_NE(r.output.find("net.messages_sent"), std::string::npos);
  EXPECT_NE(r.output.find("rpc.latency"), std::string::npos);
}

TEST(Cli, MetricsCsvWritesFile) {
  auto s = session();
  s->execute("submit 1");
  const std::string path = testing::TempDir() + "/snooze_metrics.csv";
  const auto r = s->execute("metrics csv " + path);
  EXPECT_TRUE(r.ok) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("kind"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, TraceExportWritesChromeJson) {
  auto s = session();
  s->execute("submit 1");
  const std::string path = testing::TempDir() + "/snooze_trace.json";
  const auto r = s->execute("trace export " + path);
  EXPECT_TRUE(r.ok) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("client.submit"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, TraceCsvWritesSpans) {
  auto s = session();
  s->execute("submit 1");
  const std::string path = testing::TempDir() + "/snooze_spans.csv";
  const auto r = s->execute("trace csv " + path);
  EXPECT_TRUE(r.ok) << r.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("span_id"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, HealthRendersDashboardCsvAndCriticalPath) {
  auto s = session();
  s->execute("submit 2");
  s->execute("run 10");

  const auto dash = s->execute("health");
  EXPECT_TRUE(dash.ok) << dash.output;
  EXPECT_NE(dash.output.find("vms.running"), std::string::npos);
  EXPECT_NE(dash.output.find("energy.joules"), std::string::npos);

  const std::string path = testing::TempDir() + "/snooze_health.csv";
  const auto csv = s->execute("health csv " + path);
  EXPECT_TRUE(csv.ok) << csv.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("time,", 0), 0u);
  EXPECT_NE(header.find("submit.p99_s"), std::string::npos);
  std::remove(path.c_str());

  const auto cp = s->execute("health path");
  EXPECT_TRUE(cp.ok) << cp.output;
  EXPECT_NE(cp.output.find("lc_start"), std::string::npos);
  EXPECT_NE(cp.output.find("coverage"), std::string::npos);
}

TEST(Cli, SloShowsPassFailPerSli) {
  auto s = session();
  s->execute("run 5");
  const auto r = s->execute("slo");
  EXPECT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("submit_p99"), std::string::npos);
  EXPECT_NE(r.output.find("heartbeat_staleness"), std::string::npos);
  // A freshly booted healthy cluster must not be in violation.
  EXPECT_NE(r.output.find("all SLOs met"), std::string::npos);
}

TEST(Cli, TopListsBusiestNodes) {
  auto s = session();
  s->execute("submit 3");
  s->execute("run 10");
  const auto r = s->execute("top 2");
  EXPECT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("lc-"), std::string::npos);
  EXPECT_NE(r.output.find("vms"), std::string::npos);
  EXPECT_FALSE(s->execute("top 0").ok);
}

TEST(Cli, MetricsAndTraceValidateArguments) {
  auto s = session();
  EXPECT_FALSE(s->execute("metrics").ok);
  EXPECT_FALSE(s->execute("metrics bogus").ok);
  EXPECT_FALSE(s->execute("metrics csv").ok);
  EXPECT_FALSE(s->execute("trace").ok);
  EXPECT_FALSE(s->execute("trace export").ok);
  EXPECT_FALSE(s->execute("trace bogus x").ok);
}

// --- chaos, upgrade, autoscale, incident ----------------------------------------

TEST(Cli, ChaosShowPrintsTheSeedsSchedule) {
  auto s = session();
  const auto r = s->execute("chaos show 5 30");
  ASSERT_TRUE(r.ok) << r.output;
  EXPECT_EQ(r.output.rfind("# snooze chaos schedule\nduration 30\n", 0), 0u) << r.output;
  EXPECT_EQ(s->execute("chaos show 5 30").output, r.output);  // the seed decides
}

TEST(Cli, ChaosSeedRunsAndChecksInvariants) {
  auto s = session();
  const auto r = s->execute("chaos seed 5 30");
  EXPECT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("all invariants held"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("trace hash: "), std::string::npos) << r.output;
}

TEST(Cli, ChaosScriptRunsAFileAndReportsItsErrors) {
  auto s = session();
  const std::string path = testing::TempDir() + "/snooze_chaos_script.txt";
  std::ofstream(path) << "duration 30\n5 crash lc 0 #1\n15 recover #1\n";
  const auto r = s->execute("chaos script " + path);
  EXPECT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("all invariants held"), std::string::npos) << r.output;

  std::ofstream(path) << "duration nan\n";
  const auto bad = s->execute("chaos script " + path);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.output.find("line 1: duration must be a finite number"), std::string::npos)
      << bad.output;
  std::remove(path.c_str());
  EXPECT_FALSE(s->execute("chaos script " + path).ok);  // the file is gone
}

TEST(Cli, ChaosRejectsBadSeedsAndDurations) {
  auto s = session();
  EXPECT_FALSE(s->execute("chaos").ok);
  EXPECT_FALSE(s->execute("chaos seed").ok);
  EXPECT_FALSE(s->execute("chaos seed abc").ok);
  EXPECT_FALSE(s->execute("chaos frob 5").ok);
  // Non-finite, non-positive, beyond one virtual day, or not a whole number
  // token: a NaN or infinite horizon used to hang the schedule generator.
  for (const char* duration : {"nan", "inf", "1e300", "60x", "0", "-5", "86401"}) {
    for (const char* sub : {"seed", "show"}) {
      const auto r = s->execute(std::string("chaos ") + sub + " 5 " + duration);
      EXPECT_FALSE(r.ok) << sub << " " << duration;
      EXPECT_EQ(r.output.rfind("chaos: ", 0), 0u) << r.output;
      EXPECT_NE(r.output.find("duration"), std::string::npos) << r.output;
    }
  }
}

TEST(Cli, UpgradeStartRollsTheFleetAndStatusReportsIt) {
  auto s = session();
  const auto before = s->execute("upgrade status");
  ASSERT_TRUE(before.ok);
  EXPECT_NE(before.output.find("fleet versions: v1\n"), std::string::npos) << before.output;
  EXPECT_NE(before.output.find("no upgrade run in this session"), std::string::npos);

  const auto r = s->execute("upgrade start");
  ASSERT_TRUE(r.ok) << r.output;
  EXPECT_NE(r.output.find("upgrade to v2: done"), std::string::npos) << r.output;

  const auto after = s->execute("upgrade status");
  ASSERT_TRUE(after.ok);
  EXPECT_NE(after.output.find("fleet versions: v2\n"), std::string::npos) << after.output;
  EXPECT_NE(after.output.find("upgrade: done"), std::string::npos) << after.output;
}

TEST(Cli, UpgradeValidatesArguments) {
  auto s = session();
  EXPECT_FALSE(s->execute("upgrade").ok);
  EXPECT_FALSE(s->execute("upgrade frob").ok);
  EXPECT_FALSE(s->execute("upgrade start 0").ok);
  EXPECT_FALSE(s->execute("upgrade start 2 0").ok);
}

TEST(Cli, AutoscaleOnStatusOff) {
  auto s = session();
  const auto never = s->execute("autoscale status");
  ASSERT_TRUE(never.ok);
  EXPECT_NE(never.output.find("autoscaler: never enabled"), std::string::npos);
  EXPECT_NE(never.output.find("suspended LCs: 0/4"), std::string::npos) << never.output;

  ASSERT_TRUE(s->execute("autoscale on").ok);
  ASSERT_TRUE(s->execute("run 120").ok);
  const auto on = s->execute("autoscale status");
  ASSERT_TRUE(on.ok);
  EXPECT_NE(on.output.find("autoscaler: on"), std::string::npos) << on.output;
  // An idle fleet scales down.
  EXPECT_EQ(on.output.find("suspended LCs: 0/4"), std::string::npos) << on.output;

  ASSERT_TRUE(s->execute("autoscale off").ok);
  EXPECT_NE(s->execute("autoscale status").output.find("autoscaler: off"), std::string::npos);
  EXPECT_FALSE(s->execute("autoscale").ok);
  EXPECT_FALSE(s->execute("autoscale frob").ok);
}

TEST(Cli, IncidentListShowAndCsv) {
  auto s = session();
  ASSERT_TRUE(s->execute("fail gl").ok);
  ASSERT_TRUE(s->execute("run 60").ok);
  const auto list = s->execute("incident list");
  ASSERT_TRUE(list.ok);
  EXPECT_NE(list.output.find("gm.fail"), std::string::npos) << list.output;

  const auto show = s->execute("incident show 1");
  ASSERT_TRUE(show.ok);
  EXPECT_EQ(show.output.rfind("incident #1:", 0), 0u) << show.output;
  EXPECT_NE(s->execute("incident show 99").output.find("no such episode"), std::string::npos);

  const std::string path = testing::TempDir() + "/snooze_incidents.csv";
  const auto csv = s->execute("incident csv " + path);
  EXPECT_TRUE(csv.ok) << csv.output;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.rfind("episode,opened_s,", 0), 0u) << header;
  std::remove(path.c_str());

  EXPECT_FALSE(s->execute("incident").ok);
  EXPECT_FALSE(s->execute("incident show").ok);
  EXPECT_FALSE(s->execute("incident csv").ok);
  EXPECT_FALSE(s->execute("incident frob").ok);
}

// Numeric arguments parse by the chaos script parser's rules: the whole
// token is a finite number, a count or index a whole one in range, a VM
// dimension > 0 and a lifetime >= 0, and a run at most one virtual day.
// Read leniently, these inputs hung the shell (run), crashed a node the
// operator did not name (fail), placed NaN-sized or unrequested VMs
// (submit), or quietly acted on a truncated or wrapped number (top,
// upgrade, incident; chaos seed -5 ran seed 2^64 - 5).
class CliRejectsNumber : public ::testing::TestWithParam<const char*> {};

TEST_P(CliRejectsNumber, AndChangesNothing) {
  auto s = session();
  const double now = s->system().engine().now();
  const auto r = s->execute(GetParam());
  EXPECT_FALSE(r.ok) << r.output;
  EXPECT_EQ(r.output.rfind(tokenize(GetParam()).front() + ": ", 0), 0u) << r.output;
  EXPECT_EQ(s->system().engine().now(), now);
  EXPECT_EQ(s->system().client().submitted(), 0u);
  for (const auto& gm : s->system().group_managers()) EXPECT_TRUE(gm->alive());
  for (const auto& lc : s->system().local_controllers()) EXPECT_TRUE(lc->alive());
}

std::string row_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cli, CliRejectsNumber,
                         ::testing::Values("run inf", "run nan", "run 1e300", "run 86401",
                                           "fail gm abc", "fail lc 1x", "fail lc -1",
                                           "submit 2 nan", "submit 2x", "submit 1.5",
                                           "submit 2 0", "submit 2 0.1 0.1 0.1 -1",
                                           "top 3x", "upgrade start 2x",
                                           "upgrade start 3 1.5", "incident show 1x",
                                           "chaos seed -5"),
                         row_name);

}  // namespace
