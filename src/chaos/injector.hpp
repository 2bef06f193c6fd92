// Executes a FaultSchedule against a running SnoozeSystem.
//
// The injector is a DES actor: every action is scheduled at its absolute
// time and applied through the system's own fault hooks (component fail()/
// restart(), network partitions, per-link fault knobs, global loss). GL
// targets are resolved at execution time — "crash gl" crashes whichever GM
// holds the leadership when the action fires — and the resolved node is
// remembered per pair id so the matching recover/heal finds it.
//
// The injector is the one place a fault window (a fault's interval from
// injection to heal) exists. It opens and closes each window once, and that
// single open/close produces the window's span, its `chaos.*` trace record
// and its ground-truth record in faults().
#pragma once

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "chaos/ground_truth.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "core/system.hpp"
#include "sim/actor.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::chaos {

class ChaosInjector final : public sim::Actor {
 public:
  /// `checker` may be null; when set, VMs on a deliberately crashed LC are
  /// excused from the no-VM-lost invariant (the paper terminates them).
  ChaosInjector(core::SnoozeSystem& system, FaultSchedule schedule,
                InvariantChecker* checker = nullptr);

  /// Schedule every action; call before running the engine.
  void start();

  /// Undo every still-open fault immediately: restart crashed components,
  /// clear partitions, link/node faults and global loss. Called by the
  /// runner after the schedule horizon so the final liveness check starts
  /// from a connected cluster.
  void heal_all_remaining();

  /// Faults injected so far (the registry counter `chaos.faults_injected`).
  [[nodiscard]] std::size_t faults_injected() const;

  /// Ground truth: one record per fault window, in injection order, naming
  /// the resolved target ("gm-1" for a fault aimed at the GL). A window that
  /// was never closed keeps `cleared` at +infinity.
  [[nodiscard]] const std::vector<InjectedFault>& faults() const { return faults_; }

 private:
  /// A node as (role, index). resolve() turns "the GL" into the GM that
  /// holds leadership, or leaves {kGl, -1} when there is none.
  using Node = std::pair<NodeRole, int>;
  /// An open window's key: the opening action's kind plus the addresses it
  /// affects — a node's primary address, or a link's two endpoints in
  /// ascending order (global loss affects none).
  using WindowKey = std::tuple<ActionKind, net::Address, net::Address>;
  struct Window {
    telemetry::SpanContext span;
    std::size_t fault = 0;  ///< index into faults_
  };
  using Windows = std::map<WindowKey, Window>;

  void execute(const FaultAction& action);
  void do_crash(const FaultAction& action);
  void do_recover(const FaultAction& action);
  void do_isolate(const FaultAction& action);
  void do_heal(const FaultAction& action);
  /// Link and flaky faults: install the action's knobs on both directions of
  /// one node pair, or clear them.
  void do_link(const FaultAction& action, bool install);
  /// Gray node faults: service-time stretch (slow: gm/lc) and CPU steal
  /// (steal: lc). Install with the action's severity, uninstall back to
  /// healthy.
  void do_gray(const FaultAction& action, bool install);
  void do_drop(const FaultAction& action);
  void apply_partitions();

  [[nodiscard]] Node resolve(NodeRole role, int index);
  /// Every address the node owns (main endpoint first, then auxiliary
  /// endpoints such as a GM's coordination client). Isolation must cut the
  /// whole set at once: partitioning only the main endpoint would leave the
  /// GL's election session alive, so no successor is ever elected and the
  /// failover path silently goes unexercised. Empty when out of range.
  [[nodiscard]] std::vector<net::Address> addresses(Node node);
  /// The node's main endpoint; kNullAddress when out of range.
  [[nodiscard]] net::Address primary(Node node);
  /// Unbind a pair id; false (and `node` untouched) when it is not bound.
  bool take_pair(int pair, bool isolation, Node& node);

  /// Count one fault, begin its span, append its ground-truth record and
  /// trace `chaos.<kind> <detail>`. Re-opening an open key replaces the
  /// window and leaves the old one's span and record open.
  void open_window(const WindowKey& key, const std::string& detail,
                   std::string target);
  /// End the window's span and stamp its record's clear time; no-op when
  /// no window is open under `key`.
  void close_window(const WindowKey& key);
  Windows::iterator close_window(Windows::iterator it);
  void count_fault();
  void trace(std::string_view kind, std::string_view detail = {});

  core::SnoozeSystem& system_;
  FaultSchedule schedule_;
  InvariantChecker* checker_;

  /// (pair id, is an isolation pair) -> node fixed at injection time:
  /// isolation pairs and all other pairs are separate id spaces.
  std::map<std::pair<int, bool>, Node> pairs_;
  /// primary address -> all addresses of the isolated node, forming one
  /// partition island in Network::set_partitions.
  std::map<net::Address, std::set<net::Address>> isolated_;

  telemetry::SpanContext chaos_root_;
  Windows windows_;
  std::vector<InjectedFault> faults_;
};

}  // namespace snooze::chaos
