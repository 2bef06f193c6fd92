// Declarative fault schedules for chaos testing.
//
// A FaultSchedule is a time-ordered list of fault actions (node crashes and
// recoveries, isolation windows, lossy/duplicating/reordering links, global
// loss) that a ChaosInjector executes against a running SnoozeSystem. A
// schedule can be generated from a seed (one seed fully determines the run,
// FoundationDB-style) or parsed from a small text script, and every schedule
// can be serialized back to that script form for reproduction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace snooze::chaos {

enum class ActionKind {
  kCrash,       ///< hard-crash one node
  kRecover,     ///< restart a previously crashed node
  kIsolate,     ///< partition one node away from everyone else
  kHeal,        ///< end one isolation window
  kHealAll,     ///< end every isolation / link fault / global loss at once
  kLink,        ///< install fault knobs on one node pair (both directions)
  kUnlink,      ///< remove the knobs installed by a matching kLink
  kGlobalDrop,  ///< set the global message-loss probability

  // Gray (fail-slow) faults: the node stays up and keeps heartbeating, but
  // degrades. These are what the slowness detector + quarantine machinery
  // are built to catch.
  kSlow,     ///< stretch one node's service times by `severity` (factor > 1)
  kUnslow,   ///< end a matching kSlow window
  kSteal,    ///< CPU steal on one LC: `severity` fraction of cycles stolen
  kUnsteal,  ///< end a matching kSteal window
  kFlaky,    ///< seeded latency-burst process on one node pair (both ways)
  kUnflaky,  ///< remove the knobs installed by a matching kFlaky
};

enum class NodeRole { kNone, kGl, kGm, kLc, kEp };

[[nodiscard]] const char* to_string(ActionKind kind);
[[nodiscard]] const char* to_string(NodeRole role);

/// One timed fault action. Crash/isolate actions may target "the current GL"
/// (role kGl, index -1), resolved by the injector at execution time; the
/// matching recover/heal then refers to the same concrete node through the
/// shared `pair` id.
struct FaultAction {
  sim::Time at = 0.0;
  ActionKind kind = ActionKind::kCrash;
  NodeRole role = NodeRole::kNone;
  int index = -1;  ///< node index within its role; -1 = resolve (GL only)
  NodeRole role2 = NodeRole::kNone;  ///< second endpoint for kLink/kUnlink
  int index2 = -1;
  int pair = 0;  ///< links inject/heal action pairs; 0 = unpaired
  net::LinkFaults faults;  ///< knobs for kLink / kFlaky
  double drop = 0.0;       ///< probability for kGlobalDrop
  double severity = 0.0;   ///< stretch factor for kSlow, steal frac for kSteal
};

struct FaultSchedule {
  std::vector<FaultAction> actions;
  sim::Time duration = 120.0;  ///< injection horizon (all windows heal by it)

  /// Stable-sort actions by time (generation appends heals out of order).
  void sort();

  /// Serialize to the script grammar parse_script() accepts; running the
  /// round-tripped schedule reproduces the run exactly.
  [[nodiscard]] std::string to_script() const;
};

/// Knobs of the seeded schedule generator.
struct ChaosSpec {
  sim::Time duration = 120.0;
  double fault_rate = 0.05;  ///< expected fault injections per virtual second

  // Every crash/isolation/link window heals at least min_heal_time after it
  // opens, plus an exponential extra with the given mean (all clamped to the
  // schedule horizon so the system always gets a chance to reconverge).
  sim::Time min_heal_time = 5.0;
  sim::Time mean_extra_heal = 10.0;

  // Relative weights of the fault kinds.
  double weight_crash_gl = 1.0;
  double weight_crash_gm = 1.0;
  double weight_crash_lc = 2.0;
  double weight_crash_ep = 0.5;
  double weight_isolate = 1.0;
  double weight_link = 2.0;
  double weight_global_drop = 0.5;
  // Gray-fault weights default to 0 so crash-focused specs (and the seeded
  // schedules pinned by existing tests) are unchanged; gray soaks opt in.
  double weight_slow = 0.0;
  double weight_steal = 0.0;
  double weight_flaky = 0.0;

  // Upper bounds for randomly drawn link/global knobs.
  double max_link_drop = 0.5;
  double max_duplicate = 0.3;
  double max_reorder = 0.3;
  sim::Time max_extra_latency = 0.2;
  double max_global_drop = 0.05;
  // Drawn ranges for gray faults: slow factor in [1.5, max_slow_factor],
  // steal fraction in [0.1, max_steal_frac], burst latency in
  // [0.05, max_flaky_latency].
  double max_slow_factor = 4.0;
  double max_steal_frac = 0.6;
  sim::Time max_flaky_latency = 0.5;

  // Targeting floors: never crash/isolate below this many live nodes of a
  // role (keeps a quorum path so reconvergence stays possible).
  std::size_t min_live_gms = 1;
  std::size_t min_live_lcs = 1;
  std::size_t min_live_eps = 1;
};

/// Cluster shape the schedule targets (indices are validated against it).
struct Topology {
  std::size_t group_managers = 3;
  std::size_t local_controllers = 9;
  std::size_t entry_points = 2;
};

/// Generate a random schedule; `seed` fully determines the result.
[[nodiscard]] FaultSchedule generate_schedule(const ChaosSpec& spec, const Topology& topo,
                                              std::uint64_t seed);

/// Longest chaos horizon accepted from outside the program: one virtual day,
/// the longest any in-repo run injects faults for.
constexpr sim::Time kMaxChaosDuration = 86400.0;

/// Parse one number given from outside the program (a script token, a CLI
/// argument): the whole token must be a finite number. Errors name `what`
/// and, when `line` > 0, the script line (0 marks a command-line value).
/// Throws std::runtime_error.
[[nodiscard]] double parse_number(const std::string& tok, std::size_t line,
                                  const char* what);
/// parse_number() restricted to a whole number in [0, 2^31): a node index,
/// a pair id or a count.
[[nodiscard]] int parse_int(const std::string& tok, std::size_t line, const char* what);

/// Parse a chaos horizon given from outside (a CLI or script `duration`):
/// the whole token must be a finite number of seconds in
/// (0, kMaxChaosDuration]. Throws std::runtime_error otherwise.
[[nodiscard]] sim::Time parse_duration(const std::string& tok);

/// Parse the script grammar (one action per line, `#` comments):
///
///   duration <t>
///   <t> crash  gl [#id] | gm <i> [#id] | lc <i> [#id] | ep <i> [#id]
///   <t> recover #id | <role> <i>
///   <t> isolate gl [#id] | gm <i> [#id] | lc <i> [#id] | ep <i> [#id]
///   <t> heal    #id | <role> <i> | all
///   <t> link <role> <i> <role> <j> drop=<p> [dup=<p>] [reorder=<p>]
///                                  [rdelay=<s>] [lat=<s>]
///   <t> unlink <role> <i> <role> <j>
///   <t> drop <p>
///   <t> slow <role> <i> factor=<x> [#id]      (x > 1; gm/lc targets)
///   <t> unslow #id | <role> <i>
///   <t> steal lc <i> frac=<f> [#id]           (f in (0,1))
///   <t> unsteal #id | lc <i>
///   <t> flaky <role> <i> <role> <j> lat=<s> [start=<p>] [stop=<p>]
///   <t> unflaky <role> <i> <role> <j>
///
/// Throws std::runtime_error with a line-numbered message on bad input.
[[nodiscard]] FaultSchedule parse_script(const std::string& text);

}  // namespace snooze::chaos
