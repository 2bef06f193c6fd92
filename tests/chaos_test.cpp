// Chaos subsystem tests: seeded schedule generation (determinism, healing
// discipline, script round-trip), the script parser's error reporting, the
// invariant checker's ability to actually catch violations, and end-to-end
// seeded chaos runs — including the multi-seed soak required by the paper's
// fault-tolerance claims and the trace-hash reproducibility guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/snooze.hpp"

namespace {

using namespace snooze;
using namespace snooze::chaos;

// --- Schedule generator ------------------------------------------------------

TEST(ScheduleGenerator, SameSeedSameSchedule) {
  const ChaosSpec spec;
  const Topology topo;
  const auto a = generate_schedule(spec, topo, 7);
  const auto b = generate_schedule(spec, topo, 7);
  ASSERT_EQ(a.actions.size(), b.actions.size());
  EXPECT_EQ(a.to_script(), b.to_script());
}

TEST(ScheduleGenerator, DifferentSeedsDiffer) {
  const ChaosSpec spec;
  const Topology topo;
  EXPECT_NE(generate_schedule(spec, topo, 1).to_script(),
            generate_schedule(spec, topo, 2).to_script());
}

TEST(ScheduleGenerator, ProducesFaultsAtDefaultRate) {
  const auto schedule = generate_schedule(ChaosSpec{}, Topology{}, 3);
  EXPECT_FALSE(schedule.actions.empty());
}

// Audit that every fault window a schedule opens is closed by the horizon.
// Crash/isolate/slow/steal windows pair through ids; link/flaky windows pair
// through their endpoint quadruple; global loss closes with a drop-0 action.
void audit_window_pairing(const FaultSchedule& schedule, std::uint64_t seed) {
  std::map<int, const FaultAction*> open;
  std::multimap<std::array<int, 4>, const FaultAction*> open_links;
  auto link_key = [](const FaultAction& a) {
    return std::array<int, 4>{static_cast<int>(a.role), a.index,
                              static_cast<int>(a.role2), a.index2};
  };
  double last_global_drop = 0.0;
  for (const auto& action : schedule.actions) {
    EXPECT_LE(action.at, schedule.duration) << "seed " << seed;
    switch (action.kind) {
      case ActionKind::kCrash:
      case ActionKind::kIsolate:
      case ActionKind::kSlow:
      case ActionKind::kSteal:
        ASSERT_NE(action.pair, 0) << "seed " << seed << ": unpaired window";
        open[action.pair] = &action;
        break;
      case ActionKind::kRecover:
      case ActionKind::kHeal:
      case ActionKind::kUnslow:
      case ActionKind::kUnsteal: {
        const auto it = open.find(action.pair);
        ASSERT_NE(it, open.end()) << "seed " << seed << ": close without open";
        // A window never closes before it opened.
        EXPECT_GE(action.at, it->second->at) << "seed " << seed;
        open.erase(it);
        break;
      }
      case ActionKind::kLink:
      case ActionKind::kFlaky:
        open_links.emplace(link_key(action), &action);
        break;
      case ActionKind::kUnlink:
      case ActionKind::kUnflaky: {
        const auto it = open_links.find(link_key(action));
        ASSERT_NE(it, open_links.end())
            << "seed " << seed << ": unlink without link";
        EXPECT_GE(action.at, it->second->at) << "seed " << seed;
        open_links.erase(it);
        break;
      }
      case ActionKind::kGlobalDrop:
        last_global_drop = action.drop;
        break;
      case ActionKind::kHealAll:
        break;
    }
  }
  EXPECT_TRUE(open.empty()) << "seed " << seed << ": window never healed";
  EXPECT_TRUE(open_links.empty()) << "seed " << seed << ": link never unfaulted";
  EXPECT_EQ(last_global_drop, 0.0) << "seed " << seed << ": loss left on";
}

TEST(ScheduleGenerator, EveryWindowHealsWithinTheHorizon) {
  const ChaosSpec spec;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    audit_window_pairing(generate_schedule(spec, Topology{}, seed), seed);
  }
}

TEST(ScheduleGenerator, GrayWindowsPairAndHealToo) {
  ChaosSpec spec;
  spec.weight_slow = 2.0;
  spec.weight_steal = 2.0;
  spec.weight_flaky = 2.0;
  bool saw_gray = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto schedule = generate_schedule(spec, Topology{}, seed);
    audit_window_pairing(schedule, seed);
    for (const auto& a : schedule.actions) {
      if (a.kind == ActionKind::kSlow) {
        EXPECT_GT(a.severity, 1.0) << "seed " << seed;
        EXPECT_LE(a.severity, kMaxSlowFactor) << "seed " << seed;
        saw_gray = true;
      } else if (a.kind == ActionKind::kSteal) {
        EXPECT_EQ(a.role, NodeRole::kLc) << "seed " << seed;
        EXPECT_GT(a.severity, 0.0) << "seed " << seed;
        EXPECT_LE(a.severity, kMaxStealFrac) << "seed " << seed;
        saw_gray = true;
      } else if (a.kind == ActionKind::kFlaky) {
        EXPECT_GT(a.faults.flaky_latency, 0.0) << "seed " << seed;
        saw_gray = true;
      }
    }
  }
  EXPECT_TRUE(saw_gray) << "gray weights produced no gray faults in 10 seeds";
}

TEST(ScheduleGenerator, RespectsCrashFloors) {
  ChaosSpec spec;
  spec.fault_rate = 0.5;  // dense schedule to stress the targeting floors
  const Topology topo;
  const auto schedule = generate_schedule(spec, topo, 11);
  // Count concurrently open crash windows per role; the generator must keep
  // at least min_live nodes of each role untouched at any instant.
  std::map<int, const FaultAction*> open_by_pair;
  std::map<NodeRole, int> open_crashes;
  for (const auto& action : schedule.actions) {
    if (action.kind == ActionKind::kCrash || action.kind == ActionKind::kIsolate) {
      open_by_pair[action.pair] = &action;
      ++open_crashes[action.role];
      if (action.role == NodeRole::kGm || action.role == NodeRole::kGl) {
        EXPECT_LE(open_crashes[NodeRole::kGm] + open_crashes[NodeRole::kGl],
                  static_cast<int>(topo.group_managers - kMinLiveNodes));
      }
      if (action.role == NodeRole::kLc) {
        EXPECT_LE(open_crashes[NodeRole::kLc],
                  static_cast<int>(topo.local_controllers - kMinLiveNodes));
      }
    } else if (action.kind == ActionKind::kRecover || action.kind == ActionKind::kHeal) {
      const auto it = open_by_pair.find(action.pair);
      if (it != open_by_pair.end()) {
        --open_crashes[it->second->role];
        open_by_pair.erase(it);
      }
    }
  }
}

// --- Script round-trip and parser --------------------------------------------

TEST(Script, RoundTripIsStable) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto schedule = generate_schedule(ChaosSpec{}, Topology{}, seed);
    const std::string script = schedule.to_script();
    const auto reparsed = parse_script(script);
    EXPECT_EQ(reparsed.to_script(), script) << "seed " << seed;
    EXPECT_DOUBLE_EQ(reparsed.duration, schedule.duration);
    EXPECT_EQ(reparsed.actions.size(), schedule.actions.size());
  }
}

TEST(Script, ReplayingTheScriptReproducesTheRun) {
  // Seeds 12 and 13 isolate the GL: its heal refers to the window by pair id
  // alone, exactly as the script spells it.
  for (std::uint64_t seed = 1; seed <= 13; ++seed) {
    ChaosRunConfig cfg;
    cfg.seed = seed;
    const FaultSchedule schedule = generate_schedule(cfg.spec, cfg.topology, seed);
    const auto direct = run_chaos_schedule(cfg, schedule);
    const auto replay = run_chaos_schedule(cfg, parse_script(schedule.to_script()));
    EXPECT_EQ(replay.trace_hash, direct.trace_hash) << "seed " << seed;
  }
}

TEST(Script, ParsesHandWrittenSchedule) {
  const auto schedule = parse_script(
      "# warm-up, then kill the leader and flake a link\n"
      "duration 60\n"
      "10 crash gl #1\n"
      "25 recover #1\n"
      "30 link gm 0 lc 2 drop=0.3 dup=0.1 lat=0.05\n"
      "45 unlink gm 0 lc 2\n"
      "50 drop 0.02\n"
      "55 drop 0\n"
      "59 heal all\n");
  EXPECT_DOUBLE_EQ(schedule.duration, 60.0);
  ASSERT_EQ(schedule.actions.size(), 7u);
  EXPECT_EQ(schedule.actions[0].kind, ActionKind::kCrash);
  EXPECT_EQ(schedule.actions[0].role, NodeRole::kGl);
  EXPECT_EQ(schedule.actions[0].pair, 1);
  EXPECT_EQ(schedule.actions[2].kind, ActionKind::kLink);
  EXPECT_DOUBLE_EQ(schedule.actions[2].faults.drop, 0.3);
  EXPECT_DOUBLE_EQ(schedule.actions[2].faults.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(schedule.actions[2].faults.extra_latency, 0.05);
  EXPECT_EQ(schedule.actions[6].kind, ActionKind::kHealAll);
}

TEST(Script, RejectsGarbageWithLineNumber) {
  try {
    (void)parse_script("duration 60\n10 explode lc 0\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Script, RejectsBadNumbers) {
  EXPECT_THROW((void)parse_script("duration sixty\n"), std::runtime_error);
  EXPECT_THROW((void)parse_script("duration 60\nsoon crash lc 0\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_script("duration 60\n5 link gm 0 lc 1 drop=lots\n"),
               std::runtime_error);
  // Non-finite and out-of-range values: a NaN time would reach the schedule
  // sort and the engine's bucket index, a negative delay would schedule
  // before now(), and a node index or pair id past int range is UB to cast.
  const struct {
    const char* script;
    const char* expect;  ///< substring of the error message
  } cases[] = {
      {"duration 60\nnan crash lc 0\n", "time must be a finite number"},
      {"duration 60\ninf crash lc 0\n", "time must be a finite number"},
      {"duration 60\n-1 crash lc 0\n", "time must be >= 0"},
      {"duration 60\nduration nan\n", "duration must be a finite number"},
      {"duration 60\nduration -5\n", "duration must be >= 0"},
      {"duration 60\nduration 0\n", "duration must be in (0, 86400] seconds"},
      {"duration 60\nduration 86401\n", "duration must be in (0, 86400] seconds"},
      {"duration 60\n5 link gm 0 lc 1 lat=-1\n", "lat must be >= 0"},
      {"duration 60\n5 link gm 0 lc 1 drop=0.1 rdelay=-5\n", "rdelay must be >= 0"},
      {"duration 60\n5 link gm 0 lc 1 drop=-3\n", "drop must be in [0,1]"},
      {"duration 60\n5 link gm 0 lc 1 drop=2\n", "drop must be in [0,1]"},
      {"duration 60\n5 link gm 0 lc 1 dup=1.5\n", "dup must be in [0,1]"},
      {"duration 60\n5 link gm 0 lc 1 reorder=nan\n", "reorder must be a finite number"},
      {"duration 60\n5 drop nan\n", "probability must be a finite number"},
      {"duration 60\n5 drop 2\n", "probability must be in [0,1]"},
      {"duration 60\n5 slow lc 0 factor=inf\n", "factor must be a finite number"},
      {"duration 60\n5 crash lc nan\n", "node index must be a finite number"},
      {"duration 60\n5 crash lc 1e20\n", "node index must be a whole number"},
      {"duration 60\n5 crash lc 1.5\n", "node index must be a whole number"},
      {"duration 60\n5 crash lc -1\n", "node index must be >= 0"},
      {"duration 60\n5 crash lc 0 #1e20\n", "pair id must be a whole number"},
      {"duration 60\n5 recover #9999999999\n", "pair id must be a whole number"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_script(c.script);
      FAIL() << "expected parse error for: " << c.script;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(c.expect), std::string::npos) << what;
    }
  }
}

TEST(Script, DurationRuleAcceptsUpToOneVirtualDay) {
  // The rule the CLI, snooze_shell --chaos-duration and a script's duration
  // line share; outside a script its errors carry no line number.
  EXPECT_DOUBLE_EQ(parse_duration("86400"), kMaxChaosDuration);
  EXPECT_DOUBLE_EQ(parse_duration("0.5"), 0.5);
  EXPECT_THROW((void)parse_duration("86400.5"), std::runtime_error);
  try {
    (void)parse_duration("nan");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "duration must be a finite number, got 'nan'");
  }
}

TEST(Script, ParsesGrayFaults) {
  const auto schedule = parse_script(
      "duration 80\n"
      "5 slow lc 2 factor=3.5 #1\n"
      "30 unslow #1\n"
      "10 slow gm 1 factor=2\n"
      "35 unslow gm 1\n"
      "15 steal lc 4 frac=0.4 #2\n"
      "40 unsteal #2\n"
      "20 flaky gm 0 lc 3 lat=0.3 start=0.1 stop=0.5\n"
      "45 unflaky gm 0 lc 3\n");
  ASSERT_EQ(schedule.actions.size(), 8u);
  const auto& slow = schedule.actions[0];
  EXPECT_EQ(slow.kind, ActionKind::kSlow);
  EXPECT_EQ(slow.role, NodeRole::kLc);
  EXPECT_EQ(slow.index, 2);
  EXPECT_DOUBLE_EQ(slow.severity, 3.5);
  EXPECT_EQ(slow.pair, 1);
  const auto& steal = schedule.actions[2];
  EXPECT_EQ(steal.kind, ActionKind::kSteal);
  EXPECT_DOUBLE_EQ(steal.severity, 0.4);
  const auto& flaky = schedule.actions[3];
  EXPECT_EQ(flaky.kind, ActionKind::kFlaky);
  EXPECT_DOUBLE_EQ(flaky.faults.flaky_latency, 0.3);
  EXPECT_DOUBLE_EQ(flaky.faults.flaky_start, 0.1);
  EXPECT_DOUBLE_EQ(flaky.faults.flaky_stop, 0.5);
  // And the gray verbs round-trip through to_script() like everything else.
  EXPECT_EQ(parse_script(schedule.to_script()).to_script(), schedule.to_script());
}

TEST(Script, GrayFaultErrorsCarryLineNumbers) {
  const struct {
    const char* script;
    const char* expect;  ///< substring of the error message
  } cases[] = {
      {"duration 60\n5 slow lc 0\n", "slow needs factor=<value>"},
      {"duration 60\n5 slow lc 0 factor=0.5\n", "slow factor must be > 1"},
      {"duration 60\n5 slow ep 0 factor=2\n", "slow only applies to gm/lc"},
      {"duration 60\n5 steal gm 0 frac=0.3\n", "steal only applies to lc"},
      {"duration 60\n5 steal lc 0 frac=1.5\n", "steal fraction must be in (0,1)"},
      {"duration 60\n5 flaky gm 0 lc 1 start=0.1\n", "flaky needs lat=<seconds>"},
      {"duration 60\n5 flaky gm 0 lc 1 lat=0.3 wobble=2\n", "unknown flaky knob"},
      {"duration 60\n5 flaky gm 0 lc 1 lat=0.3 start=2\n",
       "flaky start must be in (0,1]"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse_script(c.script);
      FAIL() << "expected parse error for: " << c.script;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(c.expect), std::string::npos) << what;
    }
  }
}

// --- Invariant checker actually catches violations ---------------------------

TEST(Invariants, CleanRunHoldsEverything) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = 9;
  spec.seed = 42;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  InvariantChecker checker(system);
  checker.start();
  system.engine().run_until(system.engine().now() + 120.0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_TRUE(checker.final_check(60.0));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(Invariants, LostAcceptedVmIsReported) {
  core::SystemSpec spec;
  spec.seed = 42;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  InvariantChecker checker(system);
  checker.start();
  checker.note_accepted(999999);  // never actually placed anywhere
  EXPECT_TRUE(checker.final_check(60.0));
  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations().front().find("hosted"), std::string::npos);
}

TEST(Invariants, ExcusedVmIsNotReported) {
  core::SystemSpec spec;
  spec.seed = 42;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  InvariantChecker checker(system);
  checker.start();
  checker.note_accepted(999999);
  checker.excuse_vms({999999});
  EXPECT_TRUE(checker.final_check(60.0));
  EXPECT_TRUE(checker.ok()) << checker.report();
}

TEST(Invariants, DuplicateVmInstanceIsReported) {
  core::SystemSpec spec;
  spec.seed = 42;
  // Three GMs: one is promoted GL, leaving two working groups so the rogue
  // copies can land under *different* GMs (same-GM copies get resolved).
  spec.group_managers = 3;
  spec.local_controllers = 4;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  InvariantChecker::Options options;
  options.duplicate_grace = 2.0;
  InvariantChecker checker(system, options);
  checker.start();

  // Bypass the management hierarchy and start the same VM on two LCs under
  // *different* GMs — the split-brain placement the checker must flag.
  // (Same-GM duplicates no longer persist: the GM stops the orphan copy on
  // its next monitoring report — see DuplicateUnderOneGmIsResolved.)
  const auto& lcs = system.local_controllers();
  std::size_t second = 1;
  for (std::size_t i = 1; i < lcs.size(); ++i) {
    if (lcs[i]->gm() != lcs[0]->gm()) {
      second = i;
      break;
    }
  }
  ASSERT_NE(lcs[second]->gm(), lcs[0]->gm());
  const auto vm = system.make_vm({0.1, 0.1, 0.1});
  net::RpcEndpoint rogue(system.engine(), system.network(),
                         system.network().allocate_address(), "rogue");
  for (const std::size_t i : {std::size_t{0}, second}) {
    auto start = std::make_shared<core::StartVmRequest>();
    start->vm = vm;
    rogue.call(lcs[i]->address(), start, 5.0, [](bool, const net::MsgPtr&) {});
  }
  system.engine().run_until(system.engine().now() + 30.0);
  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations().front().find("duplicate VM " + std::to_string(vm.id) +
                                              " active on 2 hosts"),
            std::string::npos)
      << checker.violations().front();
}

TEST(Invariants, DuplicateUnderOneGmIsResolved) {
  core::SystemSpec spec;
  spec.seed = 42;
  spec.local_controllers = 4;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  InvariantChecker::Options options;
  options.duplicate_grace = 15.0;
  InvariantChecker checker(system, options);
  checker.start();

  // The same rogue double-start, but both copies land under one GM: its
  // monitoring reconciliation must notice the VM is already recorded on a
  // sibling LC and stop the orphan before the grace window expires.
  const auto& lcs = system.local_controllers();
  std::size_t second = 1;
  for (std::size_t i = 1; i < lcs.size(); ++i) {
    if (lcs[i]->gm() == lcs[0]->gm()) {
      second = i;
      break;
    }
  }
  ASSERT_EQ(lcs[second]->gm(), lcs[0]->gm());
  const auto vm = system.make_vm({0.1, 0.1, 0.1});
  net::RpcEndpoint rogue(system.engine(), system.network(),
                         system.network().allocate_address(), "rogue");
  for (const std::size_t i : {std::size_t{0}, second}) {
    auto start = std::make_shared<core::StartVmRequest>();
    start->vm = vm;
    rogue.call(lcs[i]->address(), start, 5.0, [](bool, const net::MsgPtr&) {});
  }
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  const std::uint64_t resolved =
      system.telemetry().metrics().value("gm.duplicates_resolved");
  EXPECT_GE(resolved, 1u);
  // Exactly one live copy remains.
  std::size_t live = 0;
  for (const auto& lc : lcs) {
    if (lc->host().vms().count(vm.id) > 0) ++live;
  }
  EXPECT_EQ(live, 1u);
}

TEST(Invariants, DuplicateAcrossGmsIsResolved) {
  core::SystemSpec spec;
  spec.seed = 42;
  spec.group_managers = 3;
  spec.local_controllers = 4;
  // The GL keeps a VM -> GM ownership inventory from the summary stream, so
  // the split-brain placement that is merely *reported* in
  // DuplicateVmInstanceIsReported gets actively resolved: the GL revokes the
  // challenger copy and exactly one instance survives.
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));

  InvariantChecker::Options options;
  options.duplicate_grace = 20.0;
  InvariantChecker checker(system, options);
  checker.start();

  const auto& lcs = system.local_controllers();
  std::size_t second = 1;
  for (std::size_t i = 1; i < lcs.size(); ++i) {
    if (lcs[i]->gm() != lcs[0]->gm()) {
      second = i;
      break;
    }
  }
  ASSERT_NE(lcs[second]->gm(), lcs[0]->gm());
  const auto vm = system.make_vm({0.1, 0.1, 0.1});
  net::RpcEndpoint rogue(system.engine(), system.network(),
                         system.network().allocate_address(), "rogue");
  for (const std::size_t i : {std::size_t{0}, second}) {
    auto start = std::make_shared<core::StartVmRequest>();
    start->vm = vm;
    rogue.call(lcs[i]->address(), start, 5.0, [](bool, const net::MsgPtr&) {});
  }
  system.engine().run_until(system.engine().now() + 60.0);
  EXPECT_TRUE(checker.ok()) << checker.report();
  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  EXPECT_GE(metrics.value("gl.cross_gm_duplicates_revoked"), 1u)
      << "the GL never issued a revocation";
  EXPECT_GE(metrics.value("gm.revokes_honored"), 1u) << "no GM honored the revocation";
  std::size_t live = 0;
  for (const auto& lc : lcs) {
    if (lc->host().vms().count(vm.id) > 0) ++live;
  }
  EXPECT_EQ(live, 1u) << "exactly one copy must survive resolution";
}

// --- The incremental duplicate check against a full rescan ------------------

// The duplicate check as it was before hosts counted their changes: every
// sample gathers and sorts the active ids of every live LC. Its body is kept
// verbatim as the reference the checker's per-host views must match. Started
// right after the checker with the same period, it samples at the same
// instants, next to the checker's tick, so both read the same state.
class FullScanDuplicateCheck final : public sim::Actor {
 public:
  FullScanDuplicateCheck(core::SnoozeSystem& system, InvariantChecker::Options options)
      : sim::Actor(system.engine(), "full-scan"), system_(system), options_(options) {}

  void start() {
    every(options_.sample_period, [this] {
      check_duplicates();
      return true;
    });
  }
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }

 private:
  void violation(const std::string& message) {
    std::ostringstream out;
    out << "t=" << now() << ": " << message;
    violations_.push_back(out.str());
  }

  void check_duplicates() {
    // A VM counts towards duplication while actively running (or booting) on a
    // host; the migration source parked in kMigrating is the legal transient.
    // Once the active ids are sorted, a run of equal ids is one VM active on
    // that many hosts.
    active_ids_.clear();
    for (const auto& lc : system_.local_controllers()) {
      if (!lc->alive()) continue;
      for (const auto& [id, vm] : lc->host().vms()) {
        const auto state = vm->state();
        if (state == hypervisor::VmState::kBooting ||
            state == hypervisor::VmState::kRunning) {
          active_ids_.push_back(id);
        }
      }
    }
    std::sort(active_ids_.begin(), active_ids_.end());
    std::vector<std::pair<core::VmId, std::size_t>> duplicates;  // ascending ids
    for (auto run = active_ids_.begin(); run != active_ids_.end();) {
      const auto end = std::find_if(run, active_ids_.end(),
                                    [id = *run](core::VmId other) { return other != id; });
      const auto count = static_cast<std::size_t>(end - run);
      if (count >= 2) duplicates.emplace_back(*run, count);
      run = end;
    }
    for (auto it = duplicate_since_.begin(); it != duplicate_since_.end();) {
      const auto found = std::lower_bound(
          duplicates.begin(), duplicates.end(), it->first,
          [](const auto& duplicate, core::VmId id) { return duplicate.first < id; });
      if (found == duplicates.end() || found->first != it->first) {
        it = duplicate_since_.erase(it);  // resolved
      } else {
        ++it;
      }
    }
    for (const auto& [id, count] : duplicates) {
      const auto [it, inserted] = duplicate_since_.emplace(id, now());
      if (inserted) continue;
      if (now() - it->second > options_.duplicate_grace) {
        violation("duplicate VM " + std::to_string(id) + " active on " +
                  std::to_string(count) + " hosts past the grace window");
        it->second = now();  // one report per exceeded window
      }
    }
  }

  core::SnoozeSystem& system_;
  InvariantChecker::Options options_;
  std::map<core::VmId, sim::Time> duplicate_since_;
  std::vector<core::VmId> active_ids_;
  std::vector<std::string> violations_;
};

struct DuplicateChecks {
  std::vector<std::string> incremental;  ///< the checker's duplicate violations
  std::vector<std::string> full_scan;
};

/// Run `stage` on a 3-GM/6-LC system watched by the checker and the full
/// scan. `stage` gets the system and an endpoint outside the hierarchy to
/// send commands from.
template <typename Stage>
DuplicateChecks run_duplicate_checks(std::uint64_t seed, sim::Time grace, Stage stage) {
  core::SystemSpec spec;
  spec.seed = seed;
  spec.group_managers = 3;
  spec.local_controllers = 6;
  core::SnoozeSystem system(spec);
  system.start();
  EXPECT_TRUE(system.run_until_stable(60.0));

  InvariantChecker::Options options;
  options.duplicate_grace = grace;
  InvariantChecker checker(system, options);
  checker.start();
  FullScanDuplicateCheck full_scan(system, options);
  full_scan.start();
  net::RpcEndpoint rogue(system.engine(), system.network(),
                         system.network().allocate_address(), "rogue");
  stage(system, rogue);

  DuplicateChecks checks;
  for (const std::string& v : checker.violations()) {
    if (v.find("duplicate VM") != std::string::npos) checks.incremental.push_back(v);
  }
  checks.full_scan = full_scan.violations();
  return checks;
}

void run_for(core::SnoozeSystem& system, sim::Time seconds) {
  system.engine().run_until(system.engine().now() + seconds);
}

/// Start `vm` on `lc` behind the hierarchy's back.
void rogue_start(net::RpcEndpoint& rogue, const core::LocalController& lc,
                 const core::VmDescriptor& vm) {
  auto start = std::make_shared<core::StartVmRequest>();
  start->vm = vm;
  rogue.call(lc.address(), start, 5.0, [](bool, const net::MsgPtr&) {});
}

void rogue_migrate(net::RpcEndpoint& rogue, const core::LocalController& lc, core::VmId vm,
                   net::Address destination) {
  auto migrate = std::make_shared<core::MigrateVmRequest>();
  migrate->vm = vm;
  migrate->destination = destination;
  rogue.call(lc.address(), migrate, 5.0, [](bool, const net::MsgPtr&) {});
}

/// The first LC other than `lc` whose GM differs from `lc`'s.
std::size_t other_group(core::SnoozeSystem& system, std::size_t lc) {
  const auto& lcs = system.local_controllers();
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    if (i != lc && lcs[i]->gm() != lcs[lc]->gm()) return i;
  }
  ADD_FAILURE() << "every LC shares " << lcs[lc]->name() << "'s GM";
  return lc;
}

/// Run the system in half-second steps until `done` holds, at most `limit`
/// seconds.
template <typename Done>
bool run_until(core::SnoozeSystem& system, sim::Time limit, Done done) {
  const sim::Time end = system.engine().now() + limit;
  while (!done()) {
    if (system.engine().now() >= end) return false;
    run_for(system, 0.5);
  }
  return true;
}

/// Submit `n` VMs through the hierarchy and let them boot.
void submit_and_settle(core::SnoozeSystem& system, int n) {
  std::vector<core::VmDescriptor> vms;
  for (int i = 0; i < n; ++i) vms.push_back(system.make_vm({0.15, 0.1, 0.1}));
  system.client().submit_all(vms, 0.2);
  run_for(system, 15.0);
}

/// An LC hosting a running VM, and that VM as a descriptor for a second copy.
std::pair<std::size_t, core::VmDescriptor> running_vm(core::SnoozeSystem& system) {
  const auto& lcs = system.local_controllers();
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    for (const auto& [id, vm] : lcs[i]->host().vms()) {
      if (vm->state() != hypervisor::VmState::kRunning) continue;
      core::VmDescriptor copy;
      copy.id = id;
      copy.requested = vm->spec().requested;
      return {i, copy};
    }
  }
  ADD_FAILURE() << "no LC hosts a running VM";
  return {0, {}};
}

// The checker re-reads a host only when its LC's liveness or the host's
// change count moved. Every way a VM becomes or stops being active on a host
// is staged next to a cross-GM duplicate, and the checker must report
// exactly what a full rescan at the same instants reports.
TEST(Invariants, IncrementalDuplicateCheckMatchesFullScan) {
  const auto rogue_copies = [](core::SnoozeSystem& system, net::RpcEndpoint& rogue) {
    const auto& lcs = system.local_controllers();
    const auto vm = system.make_vm({0.1, 0.1, 0.1});
    rogue_start(rogue, *lcs[0], vm);
    rogue_start(rogue, *lcs[other_group(system, 0)], vm);
    run_for(system, 30.0);
  };
  const auto crash_and_recover = [](core::SnoozeSystem& system, net::RpcEndpoint& rogue) {
    const auto& lcs = system.local_controllers();
    submit_and_settle(system, 6);
    const std::size_t b = other_group(system, 0);
    const auto vm = system.make_vm({0.1, 0.1, 0.1});
    rogue_start(rogue, *lcs[0], vm);
    rogue_start(rogue, *lcs[b], vm);
    run_for(system, 5.0);
    system.fail_lc(b);  // its VMs, the copy among them, die with it
    run_for(system, 10.0);
    lcs[b]->restart();
    ASSERT_TRUE(system.run_until_stable(system.engine().now() + 200.0));
    submit_and_settle(system, 6);
    const auto again = system.make_vm({0.1, 0.1, 0.1});
    rogue_start(rogue, *lcs[b], again);
    rogue_start(rogue, *lcs[other_group(system, b)], again);
    run_for(system, 30.0);
  };
  const auto migration_aborts = [](core::SnoozeSystem& system, net::RpcEndpoint& rogue) {
    const auto& lcs = system.local_controllers();
    submit_and_settle(system, 6);
    const auto [source, vm] = running_vm(system);
    const std::size_t b = other_group(system, source);
    // The rogue endpoint is the migration's destination. When the adopt
    // arrives (the pre-copy is over, the source's copy still kMigrating), a
    // second copy starts on `b`; the adopt is refused 0.6 s later, inside
    // the 1 s RPC timeout, so the source's copy goes back to kRunning.
    bool adopt_seen = false;
    rogue.set_request_handler([&](const net::Envelope& env, net::Responder responder) {
      if (net::msg_cast<core::AdoptVmRequest>(env.payload) == nullptr || adopt_seen) return;
      adopt_seen = true;
      rogue_start(rogue, *lcs[b], vm);
      system.engine().schedule(0.6, [responder] {
        responder.respond(std::make_shared<core::AdoptVmResponse>());  // ok = false
      });
    });
    rogue_migrate(rogue, *lcs[source], vm.id, rogue.address());
    run_for(system, 90.0);
    EXPECT_TRUE(adopt_seen);
  };
  const auto migration_completes = [](core::SnoozeSystem& system, net::RpcEndpoint& rogue) {
    const auto& lcs = system.local_controllers();
    submit_and_settle(system, 6);
    const auto [source, vm] = running_vm(system);
    std::size_t dest = source;
    for (std::size_t i = 0; i < lcs.size(); ++i) {
      if (i != source && lcs[i]->host().can_place(vm.requested)) {
        dest = i;
        break;
      }
    }
    ASSERT_NE(dest, source);
    rogue_migrate(rogue, *lcs[source], vm.id, lcs[dest]->address());
    // Once the source released its copy, start another one elsewhere.
    ASSERT_TRUE(run_until(system, 90.0, [&, id = vm.id, source = source] {
      return lcs[source]->host().find(id) == nullptr;
    }));
    ASSERT_NE(lcs[dest]->host().find(vm.id), nullptr);  // the migration committed
    rogue_start(rogue, *lcs[other_group(system, dest)], vm);
    run_for(system, 30.0);
  };

  // The GL revokes a cross-GM copy within a few seconds, so the aborted
  // migration's duplicate lasts about two: a shorter grace reports it.
  const struct {
    const char* name;
    sim::Time grace;
    std::function<void(core::SnoozeSystem&, net::RpcEndpoint&)> stage;
  } scenarios[] = {{"rogue copies", 2.0, rogue_copies},
                   {"crash and recover", 2.0, crash_and_recover},
                   {"migration aborts", 0.5, migration_aborts},
                   {"migration completes", 2.0, migration_completes}};
  for (const auto& [name, grace, stage] : scenarios) {
    for (const std::uint64_t seed : {42, 7, 1234}) {
      const DuplicateChecks checks = run_duplicate_checks(seed, grace, stage);
      EXPECT_FALSE(checks.full_scan.empty()) << name << ", seed " << seed;
      EXPECT_EQ(checks.incremental, checks.full_scan) << name << ", seed " << seed;
    }
  }
}

// --- End-to-end seeded chaos runs --------------------------------------------

TEST(ChaosRun, SingleSeedHoldsInvariantsAndReconverges) {
  ChaosRunConfig cfg;
  cfg.seed = 7;
  const auto result = run_chaos(cfg);
  EXPECT_TRUE(result.converged) << result.report;
  EXPECT_TRUE(result.invariants_ok) << result.report;
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.vms_accepted, 0u);
  EXPECT_NE(result.trace_hash, 0u);
}

TEST(ChaosRun, SameSeedSameTraceHash) {
  ChaosRunConfig cfg;
  cfg.seed = 12;
  const auto first = run_chaos(cfg);
  const auto second = run_chaos(cfg);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  EXPECT_EQ(first.faults_injected, second.faults_injected);
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.report, second.report);
}

TEST(ChaosRun, DifferentSeedsDifferentTraceHash) {
  ChaosRunConfig a;
  a.seed = 1;
  ChaosRunConfig b;
  b.seed = 2;
  EXPECT_NE(run_chaos(a).trace_hash, run_chaos(b).trace_hash);
}

TEST(ChaosRun, ExplicitScriptRunsDeterministically) {
  ChaosRunConfig cfg;
  const auto schedule = parse_script(
      "duration 40\n"
      "5 crash gl #1\n"
      "20 recover #1\n"
      "10 isolate lc 3 #2\n"
      "25 heal #2\n");
  const auto first = run_chaos_schedule(cfg, schedule);
  const auto second = run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(first.ok()) << first.report;
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  // Only the two inject actions count; the recover/heal closes do not.
  EXPECT_EQ(first.faults_injected, 2u);
}

TEST(ChaosRun, DeltaSummariesSurviveSeededPartitions) {
  // Seed 45 generates the partition/heal shape that historically produced
  // cross-GM duplicate placements (a GM isolated mid-dispatch, the client
  // resubmitting to the surviving side, the partition healing with both
  // copies alive). The run must not just detect that state — it must
  // converge with invariants clean, which requires the GL inventory to
  // resolve the duplicates and the ack'd delta stream to survive the same
  // loss/duplication the schedule injects.
  ChaosRunConfig cfg;
  cfg.seed = 45;
  const auto result = run_chaos(cfg);
  EXPECT_TRUE(result.converged) << result.report;
  EXPECT_TRUE(result.invariants_ok) << result.report;
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.vms_accepted, 0u);
  // And deterministically so: the ack'd RPC stream must not introduce any
  // seed-external ordering.
  const auto again = run_chaos(cfg);
  EXPECT_EQ(result.trace_hash, again.trace_hash);
  EXPECT_EQ(result.report, again.report);
}

TEST(ChaosRun, FenceRejectionTotalsNeverFallWhenAGmRestarts) {
  // Seed 34 has a GM reject a stale command and later crash and restart: its
  // own fence starts over from zero, the run's totals must not.
  ChaosRunConfig cfg;
  cfg.seed = 34;
  cfg.spec.duration = 240.0;
  cfg.spec.fault_rate = 0.08;
  cfg.capture_trace = true;
  cfg.capture_timeseries = true;
  const auto result = run_chaos(cfg);
  std::uint64_t traced = 0;
  for (const auto& r : result.trace_records) {
    if (r.kind == "gm.fence_rejected" || r.kind == "lc.fence_rejected") ++traced;
  }
  ASSERT_GT(traced, 0u);
  EXPECT_EQ(result.fence_rejected, traced);

  std::istringstream csv(result.timeseries_csv);
  std::string line;
  std::getline(csv, line);
  const std::string::size_type at = line.find("fence.rejected_total");
  ASSERT_NE(at, std::string::npos);
  const auto column = static_cast<std::size_t>(std::count(line.begin(), line.begin() + at, ','));
  double last = 0.0;
  std::size_t rows = 0;
  while (std::getline(csv, line)) {
    std::istringstream cells(line);
    std::string cell;
    for (std::size_t i = 0; i <= column; ++i) std::getline(cells, cell, ',');
    const double value = std::stod(cell);
    EXPECT_GE(value, last) << "row " << rows;
    last = value;
    ++rows;
  }
  EXPECT_GT(rows, 0u);
  EXPECT_DOUBLE_EQ(last, static_cast<double>(traced));
}

// The >= 20-seed acceptance soak lives in chaos_soak_test.cpp (ctest label
// `soak`) so the tier-1 suite stays fast.

}  // namespace
