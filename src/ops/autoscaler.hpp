// GL-driven cluster autoscaler.
//
// Watches the Group Leader's aggregated view (GM summaries) and powers whole
// LC nodes on/off against the demand estimate: scale UP when fleet
// utilization breaches scale_up_threshold, scale DOWN when it sags below
// scale_down_threshold. Both directions are hysteretic — a decision needs
// `*_stable_checks` consecutive breaching ticks plus a post-action cooldown —
// so a flash crowd wakes capacity in one step while monitoring noise flips
// nothing. A minimum-headroom floor (min_headroom_lcs idle nodes, never
// fewer than min_on_lcs powered on) keeps absorption capacity for the next
// spike; the scale-down path only ever suspends *idle* nodes, so no VM is
// migrated or lost by the autoscaler.
//
// The decision reads the GL's soft state (gm_infos); execution is delegated
// to each live, non-leader GM (scale_wake / scale_suspend), which owns the
// power-state machinery and the lease fencing for its LCs. With no elected
// GL — or a GL still reconciling — the autoscaler holds position.
#pragma once

#include <cstdint>

#include "core/system.hpp"
#include "sim/actor.hpp"

namespace snooze::ops {

struct AutoscalerConfig {
  sim::Time check_period = 5.0;
  double scale_up_threshold = 0.75;   ///< fleet utilization that adds capacity
  double scale_down_threshold = 0.30; ///< fleet utilization that sheds capacity
  int up_stable_checks = 2;    ///< consecutive breaching ticks before waking
  int down_stable_checks = 6;  ///< consecutive sagging ticks before suspending
  sim::Time cooldown = 30.0;   ///< quiet time after any action
  std::size_t min_on_lcs = 2;       ///< never suspend below this many ON nodes
  std::size_t min_headroom_lcs = 1; ///< idle ON nodes to keep as headroom
  std::size_t max_step = 2;         ///< nodes woken/suspended per action
};

class Autoscaler final : public sim::Actor {
 public:
  Autoscaler(core::SnoozeSystem& system, AutoscalerConfig config = {});

  void start();
  /// Stop deciding (the periodic timer winds down at its next tick).
  void stop() { started_ = false; }
  [[nodiscard]] bool running() const { return started_; }

  /// Capacity actions so far (the registry's ops.scale_ups/_downs).
  [[nodiscard]] std::uint64_t scale_ups() const;
  [[nodiscard]] std::uint64_t scale_downs() const;
  /// Fleet utilization at the last tick (NaN before the first decision input).
  [[nodiscard]] double last_utilization() const { return last_utilization_; }
  [[nodiscard]] const AutoscalerConfig& config() const { return config_; }

 private:
  void tick();
  /// Fan a wake/suspend budget over the live non-leader GMs; returns how
  /// many node commands were issued.
  std::size_t command_wake(std::size_t budget);
  std::size_t command_suspend(std::size_t budget);

  core::SnoozeSystem& system_;
  AutoscalerConfig config_;
  int up_streak_ = 0;
  int down_streak_ = 0;
  sim::Time last_action_ = -1e18;
  double last_utilization_;
  bool started_ = false;
  bool timer_armed_ = false;
};

}  // namespace snooze::ops
