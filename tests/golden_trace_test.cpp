// Golden-trace regression suite.
//
// Fixed (seed, topology, chaos-script) scenarios, each pinned to a
// recorded trace in tests/golden/<name>.txt. The goldens were generated with
// the original binary-heap event queue; any engine change that perturbs event
// order — a different same-timestamp tie-break, a lost or duplicated event, a
// shifted RNG draw — shows up as a first-divergence diff against them. The
// suite is the determinism contract for the DES core (DESIGN.md, "Event
// queue").
//
// Refreshing goldens (only after an *intentional* trace change):
//
//   SNOOZE_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
//
// then review the diff of tests/golden/ like any other code change.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"

namespace {

using namespace snooze;

struct Scenario {
  const char* name;
  std::uint64_t seed;
  chaos::Topology topology;
  std::size_t vms;
  const char* script;  ///< chaos script (see chaos/schedule.hpp grammar)
  /// Optional config tweak (ops actors, SLO budgets, bursts). The original
  /// scenarios leave it null, so their configs — and goldens — are untouched.
  void (*customize)(chaos::ChaosRunConfig&) = nullptr;
  /// Also byte-pin the rendered incident table in <name>.incidents.txt
  /// (requires customize to set cfg.incidents).
  bool pin_incidents = false;
};

// Scenarios cover the fault vocabulary (GL/GM/LC crashes, isolation, lossy /
// duplicating / reordering links, global drop, heal-all) across three
// topology sizes and distinct seeds. Durations are short so the golden files
// stay reviewable.
const Scenario kScenarios[] = {
    {"quiet_small", 101, {2, 4, 1}, 4,
     "duration 30\n"},
    {"quiet_medium", 202, {3, 9, 2}, 8,
     "duration 30\n"},
    {"gl_crash", 303, {3, 6, 2}, 6,
     "duration 40\n"
     "5 crash gl #1\n"
     "20 recover #1\n"},
    {"gm_crash_pair", 404, {3, 6, 2}, 6,
     "duration 40\n"
     "4 crash gm 1 #1\n"
     "9 crash gm 2 #2\n"
     "22 recover #1\n"
     "26 recover #2\n"},
    {"lc_churn", 505, {2, 8, 1}, 8,
     "duration 45\n"
     "3 crash lc 0 #1\n"
     "6 crash lc 3 #2\n"
     "12 recover #1\n"
     "18 recover #2\n"
     "20 crash lc 5 #3\n"
     "30 recover #3\n"},
    {"gl_isolation", 606, {3, 6, 2}, 6,
     "duration 40\n"
     "6 isolate gl #1\n"
     "18 heal #1\n"},
    {"lossy_links", 707, {2, 6, 1}, 6,
     "duration 40\n"
     "2 link gm 0 lc 1 drop=0.4 dup=0.2\n"
     "5 link gm 1 lc 4 drop=0.3 reorder=0.25 rdelay=0.08\n"
     "25 unlink gm 0 lc 1\n"
     "25 unlink gm 1 lc 4\n"},
    {"global_drop", 808, {2, 6, 1}, 6,
     "duration 40\n"
     "3 drop 0.05\n"
     "24 drop 0\n"},
    {"mixed_storm", 909, {3, 9, 2}, 9,
     "duration 50\n"
     "2 link gm 0 gm 1 drop=0.2 dup=0.1\n"
     "4 crash lc 2 #1\n"
     "7 isolate gm 1 #2\n"
     "10 drop 0.03\n"
     "15 link gm 0 lc 0 drop=0.5 lat=0.05\n"
     "28 heal all\n"
     "32 recover #1\n"},
    {"big_quiet", 1010, {4, 16, 2}, 10,
     "duration 30\n"},
    // Failover-specific scenarios: the GL is cut off mid-workload so a
    // successor is elected; after the heal the deposed leader's dispatches
    // must be fenced (epoch) and it must step down on the successor's
    // heartbeat. Pins the full election → reconcile → fence event order.
    {"gl_partition_heal", 1111, {3, 6, 2}, 6,
     "duration 50\n"
     "5 isolate gl #1\n"
     "25 heal #1\n"},
    // A (non-leader) GM is isolated long enough for its LCs to re-register
    // with other GMs, minting fresh lease epochs. When the partition heals
    // the stale GM's commands to its former LCs are rejected and it drops
    // them from its books instead of rescheduling their VMs.
    {"gm_stale_leader", 1212, {3, 6, 2}, 6,
     "duration 50\n"
     "4 isolate gm 0 #1\n"
     "28 heal #1\n"},
    // Long-horizon operations: a full rolling upgrade (2 LC waves + 2 GM
    // waves, acting GL last) riding over a flash-crowd autoscale cycle. Pins
    // the wave sequencing (ops.wave_start / node_upgraded / wave_done /
    // upgrade_done) interleaved with ops.scale_down / scale_up decisions.
    {"upgrade_wave", 1313, {2, 4, 1}, 4,
     "duration 700\n",
     [](chaos::ChaosRunConfig& cfg) {
       cfg.ops.autoscaler = true;
       cfg.ops.autoscaler_config.check_period = 2.0;
       cfg.ops.autoscaler_config.scale_up_threshold = 0.45;
       cfg.ops.autoscaler_config.scale_down_threshold = 0.20;
       cfg.ops.autoscaler_config.down_stable_checks = 3;
       cfg.ops.autoscaler_config.cooldown = 10.0;
       // Keep 3 of 4 nodes on so a two-node wave always has an evacuation
       // target even while one node is scaled away.
       cfg.ops.autoscaler_config.min_on_lcs = 3;
       cfg.ops.upgrade_at = 20.0;
       cfg.ops.upgrade_config.settle_time = 10.0;
       cfg.burst_at = 520.0;
       cfg.burst_vms = 8;
       cfg.burst_lifetime = 60.0;
     }},
    // An upgrade wave hit by a GL crash under an unmeetable MTTR budget: the
    // wave pauses (hierarchy, then SLO), the burn sustains past
    // rollback_after, and the wave rolls back. Pins ops.upgrade_paused and
    // ops.upgrade_rolled_back against the failover event order.
    {"upgrade_burn_rollback", 1414, {2, 4, 1}, 4,
     "duration 130\n"
     "12 crash gl #1\n"
     "45 recover #1\n",
     [](chaos::ChaosRunConfig& cfg) {
       cfg.config.slo.failover_mttr_max_s = 5.0;
       cfg.ops.upgrade_at = 5.0;
       cfg.ops.upgrade_config.settle_time = 10.0;
       cfg.ops.upgrade_config.rollback_after = 15.0;
     }},
    // Delta-summary stream at scale: 3 GMs / 200 LCs, one GM isolated
    // mid-stream and healed. Pins the delta -> (nack/timeout) -> snapshot ->
    // delta sequence byte-exactly: the reconnecting GM must re-anchor the GL
    // with a snapshot before resuming deltas, and the GL-side inventory churn
    // from the LCs that re-registered during the partition must replay
    // identically.
    {"scale_delta_summary", 1717, {3, 200, 1}, 10,
     "duration 60\n"
     "8 isolate gm 1 #1\n"
     "20 heal #1\n"},
    // Gray failure: one LC turns fail-slow (keeps heartbeating, serves 4x
    // slower), a second loses CPU to steal, and one GM->LC link goes flaky.
    // Pins the whole detection -> containment -> reinstatement event order:
    // gm.lc_slow_flagged, gm.lc_probation, gm.lc_quarantined (evacuate +
    // suspend), and gm.lc_reinstated after the faults lift — with zero
    // leadership churn (slow != dead).
    {"gray_failslow_ladder", 1919, {2, 8, 1}, 6,
     "duration 240\n"
     "5 slow lc 1 factor=4 #1\n"
     "110 unslow #1\n"
     "12 steal lc 5 frac=0.5 #2\n"
     "110 unsteal #2\n"
     "20 flaky gm 0 lc 3 lat=0.2\n"
     "90 unflaky gm 0 lc 3\n"},
    // Incident engine end-to-end: one GM crash plus one fail-slow LC in a
    // single run, analyzed by the passive incident engine. The trace golden
    // pins the raw event order exactly as if the engine were off (it reads,
    // never writes); the companion .incidents.txt golden byte-pins the
    // rendered episode/hypothesis table including ground-truth detection
    // latencies — attribution output is part of the determinism contract.
    {"incident_report", 2020, {2, 8, 1}, 6,
     "duration 240\n"
     "8 crash gm 1 #1\n"
     "70 recover #1\n"
     "5 slow lc 1 factor=4 #2\n"
     "120 unslow #2\n",
     [](chaos::ChaosRunConfig& cfg) { cfg.incidents = true; },
     /*pin_incidents=*/true},
};

chaos::ChaosRunConfig make_config(const Scenario& sc) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = sc.seed;
  cfg.topology = sc.topology;
  cfg.vms = sc.vms;
  cfg.capture_trace = true;
  if (sc.customize != nullptr) sc.customize(cfg);
  return cfg;
}

std::string golden_path(const Scenario& sc) {
  return std::string(SNOOZE_GOLDEN_DIR) + "/" + sc.name + ".txt";
}

std::string incident_golden_path(const Scenario& sc) {
  return std::string(SNOOZE_GOLDEN_DIR) + "/" + sc.name + ".incidents.txt";
}

/// One trace record as a stable single line. Times are serialized as the raw
/// IEEE-754 bits so the round trip is exact.
std::string format_record(const sim::TraceRecord& rec) {
  std::ostringstream line;
  line << std::hex << std::bit_cast<std::uint64_t>(rec.time) << std::dec << '\t'
       << rec.actor << '\t' << rec.kind << '\t' << rec.detail;
  return line.str();
}

std::string format_time(const std::string& line) {
  const auto tab = line.find('\t');
  if (tab == std::string::npos) return "?";
  const double t = std::bit_cast<double>(
      std::stoull(line.substr(0, tab), nullptr, 16));
  std::ostringstream out;
  out << t;
  return out.str();
}

struct GoldenFile {
  std::uint64_t hash = 0;
  std::vector<std::string> lines;
};

bool read_golden(const std::string& path, GoldenFile& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("hash ", 0) == 0) {
      out.hash = std::stoull(line.substr(5), nullptr, 16);
    } else {
      out.lines.push_back(line);
    }
  }
  return true;
}

void write_golden(const std::string& path, const Scenario& sc,
                  const chaos::ChaosRunResult& result) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "# golden trace: scenario=" << sc.name << " seed=" << sc.seed
      << " gms=" << sc.topology.group_managers
      << " lcs=" << sc.topology.local_controllers
      << " eps=" << sc.topology.entry_points << " vms=" << sc.vms << "\n"
      << "# format: <time-bits-hex>\\t<actor>\\t<kind>\\t<detail>\n"
      << "hash " << std::hex << result.trace_hash << std::dec << "\n";
  for (const auto& rec : result.trace_records) out << format_record(rec) << "\n";
}

// gtest's default printer dumps a struct's raw bytes, the `name` and `script`
// pointers included, and gtest_discover_tests folds that dump into the ctest
// test names — which then change with every ASLR layout. Print the run
// parameters instead so the names are the same on every build.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << "seed=" << sc.seed << " gms=" << sc.topology.group_managers
      << " lcs=" << sc.topology.local_controllers
      << " eps=" << sc.topology.entry_points << " vms=" << sc.vms;
}

class GoldenTrace : public ::testing::TestWithParam<Scenario> {};

TEST_P(GoldenTrace, MatchesRecordedTrace) {
  const Scenario& sc = GetParam();
  const chaos::ChaosRunResult result =
      chaos::run_chaos_schedule(make_config(sc), chaos::parse_script(sc.script));

  if (std::getenv("SNOOZE_UPDATE_GOLDEN") != nullptr) {
    write_golden(golden_path(sc), sc, result);
    if (sc.pin_incidents) {
      std::ofstream out(incident_golden_path(sc));
      ASSERT_TRUE(out) << "cannot write " << incident_golden_path(sc);
      out << result.incident_table;
    }
    GTEST_SKIP() << "golden refreshed: " << golden_path(sc);
  }

  GoldenFile golden;
  ASSERT_TRUE(read_golden(golden_path(sc), golden))
      << "missing golden " << golden_path(sc)
      << " — run with SNOOZE_UPDATE_GOLDEN=1 to record it";

  // Diff record-by-record before comparing the hash: a failed run should
  // print *where* the trace diverged, not just that it did.
  const std::size_t n = result.trace_records.size();
  for (std::size_t i = 0; i < n && i < golden.lines.size(); ++i) {
    const std::string got = format_record(result.trace_records[i]);
    if (got != golden.lines[i]) {
      FAIL() << "scenario '" << sc.name << "': first divergence at record " << i
             << " of " << golden.lines.size() << " (t=" << format_time(golden.lines[i])
             << ")\n  want: " << golden.lines[i] << "\n   got: " << got
             << (i > 0 ? "\n  prev: " + golden.lines[i - 1] : "");
    }
  }
  ASSERT_EQ(n, golden.lines.size())
      << "scenario '" << sc.name << "': trace length changed (common prefix "
      << "matches; first extra record: "
      << (n > golden.lines.size() ? format_record(result.trace_records[golden.lines.size()])
                                  : golden.lines[n])
      << ")";
  EXPECT_EQ(result.trace_hash, golden.hash)
      << "scenario '" << sc.name
      << "': every trace record matches but the run fingerprint differs — "
         "the network traffic counters folded into the hash must have changed";

  if (sc.pin_incidents) {
    std::ifstream in(incident_golden_path(sc));
    ASSERT_TRUE(in) << "missing incident golden " << incident_golden_path(sc)
                    << " — run with SNOOZE_UPDATE_GOLDEN=1 to record it";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(result.incident_table, want.str())
        << "scenario '" << sc.name << "': rendered incident table changed";
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace, ::testing::ValuesIn(kScenarios),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return std::string(info.param.name);
                         });

// The seeded schedule generator, pinned in tests/golden/schedules.txt: a
// changed draw, heal lag or targeting floor shows up here as a diff of the
// script, not only as a moved benchmark fingerprint.
std::string generated_schedules() {
  struct Case {
    const char* name;
    chaos::ChaosSpec spec;
    chaos::Topology topology;
    std::uint64_t seed;
  };
  chaos::ChaosSpec day;  // the full-stack benchmark's one-day fault script
  day.duration = 86400.0;
  day.fault_rate = 0.0005;
  day.weight_flaky = 1.0;
  chaos::ChaosSpec gray;
  gray.weight_slow = gray.weight_steal = gray.weight_flaky = 2.0;
  chaos::ChaosSpec dense;
  dense.fault_rate = 0.5;
  const Case cases[] = {{"chaos_day", day, {3, 16, 2}, 1}, {"default", {}, {}, 1},
                        {"default", {}, {}, 2},            {"default", {}, {}, 3},
                        {"gray", gray, {}, 1},             {"dense", dense, {}, 11}};
  std::string out;
  for (const Case& c : cases) {
    out += "## " + std::string(c.name) + " seed " + std::to_string(c.seed) + "\n" +
           chaos::generate_schedule(c.spec, c.topology, c.seed).to_script();
  }
  return out;
}

TEST(GoldenSchedules, GeneratorMatchesRecordedScripts) {
  const std::string path = std::string(SNOOZE_GOLDEN_DIR) + "/schedules.txt";
  const std::string got = generated_schedules();
  if (std::getenv("SNOOZE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "golden refreshed: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden " << path
                  << " — run with SNOOZE_UPDATE_GOLDEN=1 to record it";
  std::istringstream want_lines(std::string(std::istreambuf_iterator<char>(in), {}));
  std::istringstream got_lines(got);
  std::string want_line, got_line;
  for (int line = 1; std::getline(want_lines, want_line); ++line) {
    ASSERT_TRUE(std::getline(got_lines, got_line)) << "schedules end early at line " << line;
    ASSERT_EQ(got_line, want_line) << "first divergence at line " << line;
  }
  EXPECT_FALSE(std::getline(got_lines, got_line)) << "extra line: " << got_line;
}

}  // namespace
