#include "chaos/schedule.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace snooze::chaos {

const char* to_string(ActionKind kind) {
  switch (kind) {
    case ActionKind::kCrash: return "crash";
    case ActionKind::kRecover: return "recover";
    case ActionKind::kIsolate: return "isolate";
    case ActionKind::kHeal: return "heal";
    case ActionKind::kHealAll: return "heal";
    case ActionKind::kLink: return "link";
    case ActionKind::kUnlink: return "unlink";
    case ActionKind::kGlobalDrop: return "drop";
    case ActionKind::kSlow: return "slow";
    case ActionKind::kUnslow: return "unslow";
    case ActionKind::kSteal: return "steal";
    case ActionKind::kUnsteal: return "unsteal";
    case ActionKind::kFlaky: return "flaky";
    case ActionKind::kUnflaky: return "unflaky";
  }
  return "?";
}

const char* to_string(NodeRole role) {
  switch (role) {
    case NodeRole::kNone: return "none";
    case NodeRole::kGl: return "gl";
    case NodeRole::kGm: return "gm";
    case NodeRole::kLc: return "lc";
    case NodeRole::kEp: return "ep";
  }
  return "?";
}

void FaultSchedule::sort() {
  std::stable_sort(actions.begin(), actions.end(),
                   [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });
}

namespace {

/// Shortest form that parses back to the same double, so a script replays
/// its schedule exactly.
std::string num(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void append_target(std::ostringstream& out, NodeRole role, int index) {
  out << ' ' << to_string(role);
  if (role != NodeRole::kGl) out << ' ' << index;
}

}  // namespace

std::string FaultSchedule::to_script() const {
  std::ostringstream out;
  out << "# snooze chaos schedule\n";
  out << "duration " << num(duration) << '\n';
  for (const FaultAction& a : actions) {
    out << num(a.at) << ' ' << to_string(a.kind);
    switch (a.kind) {
      case ActionKind::kCrash:
      case ActionKind::kIsolate:
        append_target(out, a.role, a.index);
        if (a.pair != 0) out << " #" << a.pair;
        break;
      case ActionKind::kRecover:
      case ActionKind::kHeal:
        if (a.pair != 0) {
          out << " #" << a.pair;
        } else {
          append_target(out, a.role, a.index);
        }
        break;
      case ActionKind::kHealAll:
        out << " all";
        break;
      case ActionKind::kLink:
        append_target(out, a.role, a.index);
        append_target(out, a.role2, a.index2);
        out << " drop=" << num(a.faults.drop);
        if (a.faults.duplicate > 0.0) out << " dup=" << num(a.faults.duplicate);
        if (a.faults.reorder > 0.0) {
          out << " reorder=" << num(a.faults.reorder)
              << " rdelay=" << num(a.faults.reorder_delay);
        }
        if (a.faults.extra_latency > 0.0) out << " lat=" << num(a.faults.extra_latency);
        break;
      case ActionKind::kUnlink:
        append_target(out, a.role, a.index);
        append_target(out, a.role2, a.index2);
        break;
      case ActionKind::kGlobalDrop:
        out << ' ' << num(a.drop);
        break;
      case ActionKind::kSlow:
        append_target(out, a.role, a.index);
        out << " factor=" << num(a.severity);
        if (a.pair != 0) out << " #" << a.pair;
        break;
      case ActionKind::kSteal:
        append_target(out, a.role, a.index);
        out << " frac=" << num(a.severity);
        if (a.pair != 0) out << " #" << a.pair;
        break;
      case ActionKind::kUnslow:
      case ActionKind::kUnsteal:
        if (a.pair != 0) {
          out << " #" << a.pair;
        } else {
          append_target(out, a.role, a.index);
        }
        break;
      case ActionKind::kFlaky:
        append_target(out, a.role, a.index);
        append_target(out, a.role2, a.index2);
        out << " lat=" << num(a.faults.flaky_latency)
            << " start=" << num(a.faults.flaky_start)
            << " stop=" << num(a.faults.flaky_stop);
        break;
      case ActionKind::kUnflaky:
        append_target(out, a.role, a.index);
        append_target(out, a.role2, a.index2);
        break;
    }
    out << '\n';
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------------

FaultSchedule generate_schedule(const ChaosSpec& spec, const Topology& topo,
                                std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5C4A05);
  FaultSchedule schedule;
  schedule.duration = spec.duration;
  int next_pair = 1;

  // Targets held by open windows. `busy` holds crashed or isolated nodes;
  // the GL slot is {kGl, -1} and counts as a down GM (the leader is one of
  // the GMs). `gray` holds nodes inside a slow/steal window, apart from
  // `busy`: a gray node is still up, but stacking a second gray fault on it
  // would make the window pairing ambiguous. `links` holds node pairs with a
  // link or flaky window.
  using Node = std::pair<NodeRole, int>;
  const Node gl_slot{NodeRole::kGl, -1};
  std::set<Node> busy;
  std::set<Node> gray;
  std::set<std::pair<Node, Node>> links;
  // Crash/isolate floors: never take a role below its minimum of live nodes.
  struct Pool {
    std::size_t size;
    std::size_t floor;
    std::size_t down = 0;
  };
  std::map<NodeRole, Pool> pools{
      {NodeRole::kGm, {topo.group_managers, spec.min_live_gms}},
      {NodeRole::kLc, {topo.local_controllers, spec.min_live_lcs}},
      {NodeRole::kEp, {topo.entry_points, spec.min_live_eps}}};
  auto exhausted = [&](NodeRole role) {
    const Pool& p = pools.at(role);
    return p.size - p.down <= p.floor;
  };
  // Each open window releases its targets, keyed by its heal time, once a
  // fault is drawn at or after that time.
  std::multimap<sim::Time, std::function<void()>> held;
  auto hold = [&](std::function<void()> release) {
    held.emplace(schedule.actions.back().at, std::move(release));
  };
  auto hold_node = [&](Node n) {
    const NodeRole role = n == gl_slot ? NodeRole::kGm : n.first;
    busy.insert(n);
    ++pools.at(role).down;
    hold([&, n, role] {
      busy.erase(n);
      --pools.at(role).down;
    });
  };

  auto heal_time = [&](sim::Time at) {
    sim::Time t = at + spec.min_heal_time;
    if (spec.mean_extra_heal > 0.0) {
      t += rng.exponential(1.0 / spec.mean_extra_heal);
    }
    return std::min(t, spec.duration);
  };

  auto random_node = [&] {
    // Pick a role/index pair over the whole cluster, GMs and LCs only (link
    // faults between control-plane nodes are where the protocols hurt).
    const std::size_t n = topo.group_managers + topo.local_controllers;
    const std::size_t i = rng.uniform_int<std::size_t>(0, n - 1);
    if (i < topo.group_managers) return Node{NodeRole::kGm, static_cast<int>(i)};
    return Node{NodeRole::kLc, static_cast<int>(i - topo.group_managers)};
  };

  sim::Time t = 0.0;
  if (spec.fault_rate <= 0.0) return schedule;
  while (true) {
    t += rng.exponential(spec.fault_rate);
    if (t >= spec.duration) break;

    enum { kGl, kGm, kLc, kEp, kIso, kLink, kDrop, kSlowK, kStealK, kFlakyK };
    const std::array<double, 10> weights{
        spec.weight_crash_gl, spec.weight_crash_gm, spec.weight_crash_lc,
        spec.weight_crash_ep, spec.weight_isolate,  spec.weight_link,
        spec.weight_global_drop, spec.weight_slow,  spec.weight_steal,
        spec.weight_flaky};
    const std::size_t kind = rng.weighted_index(weights);

    FaultAction inject;
    inject.at = t;

    // Append `inject` and the action that ends its window.
    auto push_window = [&](FaultAction close) {
      close.at = heal_time(t);
      schedule.actions.push_back(inject);
      schedule.actions.push_back(close);
    };
    // A node window; its heal refers to it by a fresh pair id.
    auto open_window = [&](ActionKind open_kind, ActionKind close_kind, NodeRole role,
                           int index) {
      inject.kind = open_kind;
      inject.role = role;
      inject.index = index;
      inject.pair = next_pair++;
      FaultAction close;
      close.kind = close_kind;
      close.pair = inject.pair;
      push_window(close);
    };

    switch (kind) {
      case kGl: {
        // The GL is resolved at execution time; one open GL window at a time
        // and only while a spare GM exists to take over.
        if (busy.count(gl_slot) > 0 || exhausted(NodeRole::kGm)) continue;
        const bool isolate = rng.chance(0.4);
        open_window(isolate ? ActionKind::kIsolate : ActionKind::kCrash,
                    isolate ? ActionKind::kHeal : ActionKind::kRecover,
                    NodeRole::kGl, -1);
        hold_node(gl_slot);
        break;
      }
      case kGm:
      case kIso:
      case kLc:
      case kEp: {
        const NodeRole role = kind == kLc   ? NodeRole::kLc
                              : kind == kEp ? NodeRole::kEp
                                            : NodeRole::kGm;
        if (exhausted(role)) continue;
        const int i = rng.uniform_int<int>(0, static_cast<int>(pools.at(role).size) - 1);
        if (busy.count({role, i}) > 0) continue;
        const bool isolate = kind == kIso || (kind == kLc && rng.chance(0.3));
        open_window(isolate ? ActionKind::kIsolate : ActionKind::kCrash,
                    isolate ? ActionKind::kHeal : ActionKind::kRecover, role, i);
        hold_node({role, i});
        break;
      }
      case kLink:
      case kFlakyK: {
        const Node a = random_node();
        const Node b = random_node();
        if (a == b || links.count({a, b}) > 0) continue;
        const bool flaky = kind == kFlakyK;
        inject.kind = flaky ? ActionKind::kFlaky : ActionKind::kLink;
        std::tie(inject.role, inject.index) = a;
        std::tie(inject.role2, inject.index2) = b;
        if (flaky) {
          inject.faults.flaky_latency = rng.uniform(0.05, spec.max_flaky_latency);
        } else {
          inject.faults.drop = rng.uniform(0.05, spec.max_link_drop);
          if (rng.chance(0.4)) inject.faults.duplicate = rng.uniform(0.0, spec.max_duplicate);
          if (rng.chance(0.4)) {
            inject.faults.reorder = rng.uniform(0.0, spec.max_reorder);
            inject.faults.reorder_delay = rng.uniform(0.01, 0.2);
          }
          if (rng.chance(0.3)) {
            inject.faults.extra_latency = rng.uniform(0.0, spec.max_extra_latency);
          }
        }
        FaultAction close;
        close.kind = flaky ? ActionKind::kUnflaky : ActionKind::kUnlink;
        std::tie(close.role, close.index) = a;
        std::tie(close.role2, close.index2) = b;
        push_window(close);
        links.insert({a, b});
        hold([&links, a, b] { links.erase({a, b}); });
        break;
      }
      case kSlowK:
      case kStealK: {
        const bool steal = kind == kStealK;  // CPU steal hits LCs only
        const int lcs = static_cast<int>(topo.local_controllers);
        const Node n = steal ? Node{NodeRole::kLc, rng.uniform_int<int>(0, lcs - 1)}
                             : random_node();
        if (busy.count(n) > 0 || gray.count(n) > 0) continue;
        inject.severity = steal ? rng.uniform(0.1, spec.max_steal_frac)
                                : rng.uniform(1.5, spec.max_slow_factor);
        open_window(steal ? ActionKind::kSteal : ActionKind::kSlow,
                    steal ? ActionKind::kUnsteal : ActionKind::kUnslow, n.first, n.second);
        gray.insert(n);
        hold([&gray, n] { gray.erase(n); });
        break;
      }
      case kDrop:
      default: {
        inject.kind = ActionKind::kGlobalDrop;
        inject.drop = rng.uniform(0.005, spec.max_global_drop);
        FaultAction close;
        close.kind = ActionKind::kGlobalDrop;
        push_window(close);
        break;
      }
    }

    // Release the targets of every window healed by now.
    while (!held.empty() && held.begin()->first <= t) {
      held.begin()->second();
      held.erase(held.begin());
    }
  }

  schedule.sort();
  return schedule;
}

// ---------------------------------------------------------------------------
// Script parsing
// ---------------------------------------------------------------------------

namespace {

/// Line 0 marks a value from outside any script (a command-line argument).
[[noreturn]] void fail_at(std::size_t line, const std::string& message) {
  if (line == 0) throw std::runtime_error(message);
  throw std::runtime_error("chaos script line " + std::to_string(line) + ": " + message);
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#' && (tok.size() < 2 || !std::isdigit(static_cast<unsigned char>(tok[1])))) {
      break;  // trailing comment ("#id" pair refs keep their digits)
    }
    out.push_back(tok);
  }
  return out;
}

}  // namespace

double parse_number(const std::string& tok, std::size_t line, const char* what) {
  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(tok, &used);
    if (used != tok.size()) fail_at(line, std::string("bad ") + what + " '" + tok + "'");
  } catch (const std::logic_error&) {
    fail_at(line, std::string("bad ") + what + " '" + tok + "'");
  }
  // stod accepts "nan" and "inf"; a NaN time or delay defeats every ordered
  // comparison downstream (the schedule sort, the engine's bucket index).
  if (!std::isfinite(value)) {
    fail_at(line, std::string(what) + " must be a finite number, got '" + tok + "'");
  }
  return value;
}

int parse_int(const std::string& tok, std::size_t line, const char* what) {
  const double value = parse_number(tok, line, what);
  if (value < 0.0) fail_at(line, std::string(what) + " must be >= 0");
  if (value != std::floor(value) ||
      value > static_cast<double>(std::numeric_limits<int>::max())) {
    fail_at(line, std::string(what) + " must be a whole number below 2^31, got '" +
                      tok + "'");
  }
  return static_cast<int>(value);
}

namespace {

double parse_probability(const std::string& tok, std::size_t line, const char* what) {
  const double value = parse_number(tok, line, what);
  if (value < 0.0 || value > 1.0) fail_at(line, std::string(what) + " must be in [0,1]");
  return value;
}

/// A duration or delay: negative values would schedule before now().
double parse_seconds(const std::string& tok, std::size_t line, const char* what) {
  const double value = parse_number(tok, line, what);
  if (value < 0.0) fail_at(line, std::string(what) + " must be >= 0");
  return value;
}

/// A chaos horizon: a generator asked for an empty or endless one never
/// finishes drawing faults.
double parse_horizon(const std::string& tok, std::size_t line) {
  const double value = parse_seconds(tok, line, "duration");
  if (value == 0.0 || value > kMaxChaosDuration) {
    fail_at(line, "duration must be in (0, " +
                      std::to_string(static_cast<long>(kMaxChaosDuration)) +
                      "] seconds, got '" + tok + "'");
  }
  return value;
}

NodeRole parse_role(const std::string& tok, std::size_t line) {
  if (tok == "gl") return NodeRole::kGl;
  if (tok == "gm") return NodeRole::kGm;
  if (tok == "lc") return NodeRole::kLc;
  if (tok == "ep") return NodeRole::kEp;
  fail_at(line, "unknown role '" + tok + "'");
}

/// Parse "<role> [<i>]" starting at tokens[pos]; advances pos.
void parse_target(const std::vector<std::string>& tokens, std::size_t& pos,
                  std::size_t line, NodeRole& role, int& index) {
  if (pos >= tokens.size()) fail_at(line, "expected a target role");
  role = parse_role(tokens[pos++], line);
  if (role == NodeRole::kGl) {
    index = -1;
    return;
  }
  if (pos >= tokens.size()) fail_at(line, "expected a node index");
  index = parse_int(tokens[pos++], line, "node index");
}

/// Parse an optional trailing "#id"; returns 0 when absent.
int parse_pair(const std::vector<std::string>& tokens, std::size_t& pos,
               std::size_t line) {
  if (pos >= tokens.size() || tokens[pos][0] != '#') return 0;
  const int id = parse_int(tokens[pos].substr(1), line, "pair id");
  ++pos;
  return id;
}

}  // namespace

sim::Time parse_duration(const std::string& tok) { return parse_horizon(tok, 0); }

FaultSchedule parse_script(const std::string& text) {
  FaultSchedule schedule;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) continue;

    if (tokens[0] == "duration") {
      if (tokens.size() < 2) fail_at(line_no, "duration needs a value");
      schedule.duration = parse_horizon(tokens[1], line_no);
      continue;
    }

    FaultAction action;
    action.at = parse_seconds(tokens[0], line_no, "time");
    if (tokens.size() < 2) fail_at(line_no, "expected an action verb");
    const std::string& verb = tokens[1];
    std::size_t pos = 2;

    if (verb == "crash" || verb == "isolate") {
      action.kind = verb == "crash" ? ActionKind::kCrash : ActionKind::kIsolate;
      parse_target(tokens, pos, line_no, action.role, action.index);
      action.pair = parse_pair(tokens, pos, line_no);
    } else if (verb == "recover" || verb == "heal") {
      if (pos < tokens.size() && tokens[pos] == "all") {
        if (verb != "heal") fail_at(line_no, "'all' only applies to heal");
        action.kind = ActionKind::kHealAll;
        ++pos;
      } else if (pos < tokens.size() && tokens[pos][0] == '#') {
        action.kind = verb == "recover" ? ActionKind::kRecover : ActionKind::kHeal;
        action.pair = parse_pair(tokens, pos, line_no);
        if (action.pair == 0) fail_at(line_no, "bad pair reference");
      } else {
        action.kind = verb == "recover" ? ActionKind::kRecover : ActionKind::kHeal;
        parse_target(tokens, pos, line_no, action.role, action.index);
      }
    } else if (verb == "link") {
      action.kind = ActionKind::kLink;
      parse_target(tokens, pos, line_no, action.role, action.index);
      parse_target(tokens, pos, line_no, action.role2, action.index2);
      bool saw_knob = false;
      for (; pos < tokens.size(); ++pos) {
        const std::string& knob = tokens[pos];
        const auto eq = knob.find('=');
        if (eq == std::string::npos) fail_at(line_no, "bad link knob '" + knob + "'");
        const std::string key = knob.substr(0, eq);
        const std::string value = knob.substr(eq + 1);
        if (key == "drop") {
          action.faults.drop = parse_probability(value, line_no, "drop");
        } else if (key == "dup") {
          action.faults.duplicate = parse_probability(value, line_no, "dup");
        } else if (key == "reorder") {
          action.faults.reorder = parse_probability(value, line_no, "reorder");
        } else if (key == "rdelay") {
          action.faults.reorder_delay = parse_seconds(value, line_no, "rdelay");
        } else if (key == "lat") {
          action.faults.extra_latency = parse_seconds(value, line_no, "lat");
        } else {
          fail_at(line_no, "unknown link knob '" + key + "'");
        }
        saw_knob = true;
      }
      if (!saw_knob) fail_at(line_no, "link needs at least one knob (e.g. drop=0.2)");
      pos = tokens.size();
    } else if (verb == "unlink") {
      action.kind = ActionKind::kUnlink;
      parse_target(tokens, pos, line_no, action.role, action.index);
      parse_target(tokens, pos, line_no, action.role2, action.index2);
    } else if (verb == "drop") {
      action.kind = ActionKind::kGlobalDrop;
      if (pos >= tokens.size()) fail_at(line_no, "drop needs a probability");
      action.drop = parse_probability(tokens[pos++], line_no, "probability");
    } else if (verb == "slow" || verb == "steal") {
      action.kind = verb == "slow" ? ActionKind::kSlow : ActionKind::kSteal;
      parse_target(tokens, pos, line_no, action.role, action.index);
      if (verb == "steal" && action.role != NodeRole::kLc) {
        fail_at(line_no, "steal only applies to lc nodes");
      }
      if (verb == "slow" && action.role != NodeRole::kGm && action.role != NodeRole::kLc) {
        fail_at(line_no, "slow only applies to gm/lc nodes");
      }
      const char* knob = verb == "slow" ? "factor" : "frac";
      if (pos >= tokens.size() ||
          tokens[pos].rfind(std::string(knob) + "=", 0) != 0) {
        fail_at(line_no, verb + std::string(" needs ") + knob + "=<value>");
      }
      action.severity =
          parse_number(tokens[pos++].substr(std::string(knob).size() + 1), line_no, knob);
      if (verb == "slow" && action.severity <= 1.0) {
        fail_at(line_no, "slow factor must be > 1");
      }
      if (verb == "steal" && (action.severity <= 0.0 || action.severity >= 1.0)) {
        fail_at(line_no, "steal fraction must be in (0,1)");
      }
      action.pair = parse_pair(tokens, pos, line_no);
    } else if (verb == "unslow" || verb == "unsteal") {
      action.kind = verb == "unslow" ? ActionKind::kUnslow : ActionKind::kUnsteal;
      if (pos < tokens.size() && tokens[pos][0] == '#') {
        action.pair = parse_pair(tokens, pos, line_no);
        if (action.pair == 0) fail_at(line_no, "bad pair reference");
      } else {
        parse_target(tokens, pos, line_no, action.role, action.index);
      }
    } else if (verb == "flaky") {
      action.kind = ActionKind::kFlaky;
      parse_target(tokens, pos, line_no, action.role, action.index);
      parse_target(tokens, pos, line_no, action.role2, action.index2);
      bool saw_lat = false;
      for (; pos < tokens.size(); ++pos) {
        const std::string& knob = tokens[pos];
        const auto eq = knob.find('=');
        if (eq == std::string::npos) fail_at(line_no, "bad flaky knob '" + knob + "'");
        const std::string key = knob.substr(0, eq);
        const double value = parse_number(knob.substr(eq + 1), line_no, key.c_str());
        if (key == "lat") {
          if (value <= 0.0) fail_at(line_no, "flaky lat must be > 0");
          action.faults.flaky_latency = value;
          saw_lat = true;
        } else if (key == "start" || key == "stop") {
          if (value <= 0.0 || value > 1.0) {
            fail_at(line_no, "flaky " + key + " must be in (0,1]");
          }
          (key == "start" ? action.faults.flaky_start : action.faults.flaky_stop) = value;
        } else {
          fail_at(line_no, "unknown flaky knob '" + key + "'");
        }
      }
      if (!saw_lat) fail_at(line_no, "flaky needs lat=<seconds>");
      pos = tokens.size();
    } else if (verb == "unflaky") {
      action.kind = ActionKind::kUnflaky;
      parse_target(tokens, pos, line_no, action.role, action.index);
      parse_target(tokens, pos, line_no, action.role2, action.index2);
    } else {
      fail_at(line_no, "unknown action '" + verb + "'");
    }
    if (pos != tokens.size()) {
      fail_at(line_no, "unexpected trailing token '" + tokens[pos] + "'");
    }
    schedule.actions.push_back(action);
    schedule.duration = std::max(schedule.duration, action.at);
  }
  schedule.sort();
  return schedule;
}

}  // namespace snooze::chaos
