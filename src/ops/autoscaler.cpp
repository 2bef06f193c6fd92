#include "ops/autoscaler.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "energy/energy_meter.hpp"

namespace snooze::ops {

namespace {
std::string fmt_util(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  return buf;
}
}  // namespace

Autoscaler::Autoscaler(core::SnoozeSystem& system, AutoscalerConfig config)
    : sim::Actor(system.engine(), "autoscale"), system_(system), config_(config),
      last_utilization_(std::numeric_limits<double>::quiet_NaN()) {}

void Autoscaler::start() {
  started_ = true;
  if (timer_armed_) return;  // resuming: the existing timer picks it up
  timer_armed_ = true;
  every(config_.check_period, [this] {
    if (!started_) {
      timer_armed_ = false;
      return false;
    }
    tick();
    return true;
  });
}

std::uint64_t Autoscaler::scale_ups() const {
  return system_.telemetry().metrics().value("ops.scale_ups");
}

std::uint64_t Autoscaler::scale_downs() const {
  return system_.telemetry().metrics().value("ops.scale_downs");
}

void Autoscaler::tick() {
  core::GroupManager* leader = system_.leader();
  if (leader == nullptr || leader->reconciling()) {
    // No authoritative demand view: hold position (and any streaks — a
    // failover should not erase evidence gathered right before it).
    return;
  }
  double used = 0.0, capacity = 0.0;
  for (const core::GmInfo& info : leader->gm_infos()) {
    used += info.used.l1_norm();
    capacity += info.capacity.l1_norm();
  }
  if (capacity <= 0.0) return;
  const double utilization = used / capacity;
  last_utilization_ = utilization;

  up_streak_ = utilization > config_.scale_up_threshold ? up_streak_ + 1 : 0;
  down_streak_ = utilization < config_.scale_down_threshold ? down_streak_ + 1 : 0;
  if (now() - last_action_ < config_.cooldown) return;

  if (up_streak_ >= config_.up_stable_checks) {
    const std::size_t woken = command_wake(config_.max_step);
    if (woken > 0) {
      last_action_ = now();
      up_streak_ = 0;
      system_.trace().record("autoscale", "ops.scale_up",
                             "woken=" + std::to_string(woken) +
                                 " util=" + fmt_util(utilization));
      telemetry::count(&system_.telemetry(), "ops.scale_ups");
    }
    return;
  }

  if (down_streak_ >= config_.down_stable_checks) {
    // Floors: keep min_on_lcs powered on and min_headroom_lcs of them idle.
    std::size_t on = 0, idle = 0;
    for (const auto& lc : system_.local_controllers()) {
      if (!lc->alive()) continue;
      if (energy::power_class(lc->power_state()) != energy::PowerClass::kOn) continue;
      ++on;
      if (lc->vm_count() == 0) ++idle;
    }
    std::size_t budget = config_.max_step;
    budget = std::min(budget, on > config_.min_on_lcs ? on - config_.min_on_lcs : 0);
    budget = std::min(budget,
                      idle > config_.min_headroom_lcs ? idle - config_.min_headroom_lcs : 0);
    if (budget == 0) return;
    const std::size_t suspended = command_suspend(budget);
    if (suspended > 0) {
      last_action_ = now();
      down_streak_ = 0;
      system_.trace().record("autoscale", "ops.scale_down",
                             "suspended=" + std::to_string(suspended) +
                                 " util=" + fmt_util(utilization));
      telemetry::count(&system_.telemetry(), "ops.scale_downs");
    }
  }
}

std::size_t Autoscaler::command_wake(std::size_t budget) {
  std::size_t commanded = 0;
  for (const auto& gm : system_.group_managers()) {
    if (commanded >= budget) break;
    if (!gm->alive() || gm->is_leader() || gm->draining()) continue;
    commanded += gm->scale_wake(budget - commanded);
  }
  return commanded;
}

std::size_t Autoscaler::command_suspend(std::size_t budget) {
  std::size_t commanded = 0;
  for (const auto& gm : system_.group_managers()) {
    if (commanded >= budget) break;
    if (!gm->alive() || gm->is_leader() || gm->draining()) continue;
    commanded += gm->scale_suspend(budget - commanded);
  }
  return commanded;
}

}  // namespace snooze::ops
