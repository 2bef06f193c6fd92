#include "ops/upgrade.hpp"

#include <algorithm>
#include <string>

#include "energy/energy_meter.hpp"

namespace snooze::ops {

namespace {
constexpr sim::Time kEvacuateRetry = 5.0;    ///< re-plan evacuation (monitor lag is 2 s)
constexpr sim::Time kRejoinTimeout = 150.0;  ///< boot (~90 s) + discovery + join
constexpr sim::Time kGmRestartGrace = 2.0;   ///< let resign / step-down propagate
}  // namespace

RollingUpgrade::RollingUpgrade(core::SnoozeSystem& system, obs::HealthMonitor* monitor,
                               UpgradeConfig config)
    : sim::Actor(system.engine(), "upgrade"), system_(system), monitor_(monitor),
      config_(config) {}

void RollingUpgrade::start() {
  if (state_ != UpgradeState::kIdle) return;

  // Plan the waves from current node versions: LC waves first (the wide,
  // cheap part of the fleet), then GMs one at a time, the acting GL last so
  // the upgrade itself causes at most one leader election.
  Wave wave;
  auto& lcs = system_.local_controllers();
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    if (lcs[i]->software_version() >= config_.target_version) continue;
    wave.nodes.push_back(i);
    if (wave.nodes.size() == config_.wave_size) {
      waves_.push_back(wave);
      wave.nodes.clear();
    }
  }
  if (!wave.nodes.empty()) waves_.push_back(wave);
  const core::GroupManager* leader = system_.leader();
  auto& gms = system_.group_managers();
  std::size_t leader_index = gms.size();
  for (std::size_t i = 0; i < gms.size(); ++i) {
    if (gms[i]->software_version() >= config_.target_version) continue;
    if (gms[i].get() == leader) {
      leader_index = i;
      continue;
    }
    waves_.push_back(Wave{true, {i}});
  }
  if (leader_index < gms.size()) waves_.push_back(Wave{true, {leader_index}});

  if (waves_.empty()) {
    state_ = UpgradeState::kDone;
    trace_event("ops.upgrade_done", "waves=0");
    return;
  }
  state_ = UpgradeState::kRunning;
  trace_event("ops.upgrade_start", "waves=" + std::to_string(waves_.size()) +
                                       " target=" + std::to_string(config_.target_version));
  every(config_.check_period, [this] {
    tick();
    return !finished();
  });
}

bool RollingUpgrade::slo_firing() const {
  return monitor_ != nullptr && monitor_->slo().firing_count() > 0;
}

bool RollingUpgrade::gate_ok() const {
  const core::GroupManager* leader = system_.leader();
  return leader != nullptr && !leader->reconciling() && !slo_firing();
}

void RollingUpgrade::tick() {
  if (state_ == UpgradeState::kPaused) {
    maybe_resume();
    return;
  }
  if (state_ != UpgradeState::kRunning) return;
  switch (phase_) {
    case Phase::kGate:
      if (gate_ok()) {
        begin_wave();
      } else {
        enter_pause();
      }
      break;
    case Phase::kDraining:
      if (!gate_ok()) {
        enter_pause();
        return;
      }
      step_draining();
      break;
    case Phase::kRejoining:
      if (!gate_ok()) {
        enter_pause();
        return;
      }
      step_rejoining();
      break;
    case Phase::kSettling:
      step_settling();
      break;
  }
}

void RollingUpgrade::enter_pause() {
  state_ = UpgradeState::kPaused;
  ++pauses_;
  pause_started_ = now();
  pause_was_slo_ = slo_firing();
  trace_event("ops.upgrade_paused",
              std::string("reason=") + (pause_was_slo_ ? "slo" : "hierarchy") +
                  " wave=" + std::to_string(wave_index_ + 1));
}

void RollingUpgrade::maybe_resume() {
  if (slo_firing()) {
    if (!pause_was_slo_) {
      // The pause started for hierarchy health and an SLO burn developed
      // while waiting: the rollback clock measures the *burn*, not the wait.
      pause_was_slo_ = true;
      pause_started_ = now();
    }
    if (now() - pause_started_ >= config_.rollback_after) roll_back();
    return;
  }
  if (!gate_ok()) return;  // headless hierarchy: wait out the failover
  state_ = UpgradeState::kRunning;
  pause_started_ = -1.0;
  pause_was_slo_ = false;
  trace_event("ops.upgrade_resumed", "wave=" + std::to_string(wave_index_ + 1));
}

void RollingUpgrade::begin_wave() {
  const Wave& wave = waves_[wave_index_];
  wave_from_versions_.assign(wave.nodes.size(), 0);
  wave_node_done_.assign(wave.nodes.size(), false);
  drain_started_ = now();
  last_evacuate_ = now();
  trace_event("ops.wave_start", "wave=" + std::to_string(wave_index_ + 1) + "/" +
                                    std::to_string(waves_.size()) +
                                    (wave.gm_wave ? " kind=gm" : " kind=lc") +
                                    " nodes=" + std::to_string(wave.nodes.size()));
  if (wave.gm_wave) {
    auto& gm = *system_.group_managers()[wave.nodes[0]];
    wave_from_versions_[0] = gm.software_version();
    if (gm.alive()) gm.begin_drain();
  } else {
    auto& lcs = system_.local_controllers();
    for (std::size_t j = 0; j < wave.nodes.size(); ++j) {
      auto& lc = *lcs[wave.nodes[j]];
      wave_from_versions_[j] = lc.software_version();
      if (lc.alive()) lc.begin_drain();
    }
    // Deliberately NOT evacuating yet: the GM learns the wave's draining
    // flags from the next monitoring report (~2 s), and a plan made before
    // that can pick another draining wave node as a migration target — a
    // doomed transfer that occupies the source's migration link for its full
    // pre-copy. step_draining() issues the first evacuation one
    // kEvacuateRetry after the flags have propagated.
  }
  phase_ = Phase::kDraining;
}

void RollingUpgrade::evacuate_wave() {
  const Wave& wave = waves_[wave_index_];
  auto& lcs = system_.local_controllers();
  for (std::size_t j = 0; j < wave.nodes.size(); ++j) {
    if (wave_node_done_[j]) continue;
    auto& lc = *lcs[wave.nodes[j]];
    if (!lc.alive() || lc.vm_count() == 0) continue;
    const net::Address owner = lc.gm();
    if (owner == net::kNullAddress) continue;
    for (auto& gm : system_.group_managers()) {
      if (gm->address() != owner) continue;
      if (gm->alive()) gm->evacuate_lc(lc.address());
      break;
    }
  }
  last_evacuate_ = now();
}

void RollingUpgrade::restart_lc(std::size_t index, std::uint32_t to_version) {
  auto& lc = *system_.local_controllers()[index];
  if (lc.alive()) lc.fail();
  lc.restart();
  lc.set_software_version(to_version);
}

void RollingUpgrade::step_draining() {
  const Wave& wave = waves_[wave_index_];
  if (wave.gm_wave) {
    if (now() - drain_started_ < kGmRestartGrace) return;
    auto& gm = *system_.group_managers()[wave.nodes[0]];
    if (gm.alive()) gm.fail();
    gm.restart();
    gm.set_software_version(config_.target_version);
    wave_node_done_[0] = true;
    ++nodes_upgraded_;
    trace_event("ops.node_upgraded",
                "node=" + gm.name() + " v=" + std::to_string(config_.target_version));
    rejoin_started_ = now();
    phase_ = Phase::kRejoining;
    return;
  }

  auto& lcs = system_.local_controllers();
  bool all_drained = true;
  for (std::size_t node : wave.nodes) {
    if (!lcs[node]->drained()) all_drained = false;
  }
  const bool forced = !all_drained && now() - drain_started_ >= config_.drain_timeout;
  if (!all_drained && !forced) {
    // Re-plan the evacuation once the monitoring lag has caught up — a VM
    // whose first migration target refused (or died) gets a fresh slot.
    if (now() - last_evacuate_ >= kEvacuateRetry) evacuate_wave();
    return;
  }
  for (std::size_t j = 0; j < wave.nodes.size(); ++j) {
    auto& lc = *lcs[wave.nodes[j]];
    if (forced && !lc.drained()) {
      ++forced_drains_;
      trace_event("ops.drain_forced",
                  "node=" + lc.name() + " vms=" + std::to_string(lc.vm_count()));
    }
    restart_lc(wave.nodes[j], config_.target_version);
    wave_node_done_[j] = true;
    ++nodes_upgraded_;
    trace_event("ops.node_upgraded",
                "node=" + lc.name() + " v=" + std::to_string(config_.target_version));
  }
  rejoin_started_ = now();
  phase_ = Phase::kRejoining;
}

void RollingUpgrade::step_rejoining() {
  const Wave& wave = waves_[wave_index_];
  bool rejoined = true;
  if (wave.gm_wave) {
    const core::GroupManager* leader = system_.leader();
    rejoined = system_.group_managers()[wave.nodes[0]]->alive() && leader != nullptr &&
               !leader->reconciling();
  } else {
    for (std::size_t node : wave.nodes) {
      if (!system_.local_controllers()[node]->assigned()) rejoined = false;
    }
  }
  if (!rejoined && now() - rejoin_started_ < kRejoinTimeout) return;
  if (!rejoined) {
    trace_event("ops.rejoin_timeout", "wave=" + std::to_string(wave_index_ + 1));
  }
  settle_until_ = now() + config_.settle_time;
  phase_ = Phase::kSettling;
}

void RollingUpgrade::step_settling() {
  if (now() < settle_until_) return;
  ++waves_completed_;
  trace_event("ops.wave_done", "wave=" + std::to_string(wave_index_ + 1) + "/" +
                                   std::to_string(waves_.size()));
  ++wave_index_;
  if (wave_index_ >= waves_.size()) {
    state_ = UpgradeState::kDone;
    trace_event("ops.upgrade_done", "nodes=" + std::to_string(nodes_upgraded_));
    return;
  }
  phase_ = Phase::kGate;
}

void RollingUpgrade::roll_back() {
  ++rollbacks_;
  if (phase_ == Phase::kGate) {
    // Paused at the wave gate: begin_wave() has not run yet, so no node of
    // this wave was drained or restarted — nothing to undo (wave_node_done_
    // still describes the previous wave, or is empty on the first).
    trace_event("ops.upgrade_rolled_back",
                "wave=" + std::to_string(wave_index_ + 1) + " nodes=0");
    state_ = UpgradeState::kRolledBack;
    return;
  }
  const Wave& wave = waves_[wave_index_];
  trace_event("ops.upgrade_rolled_back",
              "wave=" + std::to_string(wave_index_ + 1) +
                  " nodes=" + std::to_string(wave.nodes.size()));
  if (wave.gm_wave) {
    auto& gm = *system_.group_managers()[wave.nodes[0]];
    if (wave_node_done_[0]) {
      if (gm.alive()) gm.fail();
      gm.restart();
      gm.set_software_version(wave_from_versions_[0]);
    } else if (gm.alive()) {
      gm.cancel_drain();
    }
  } else {
    auto& lcs = system_.local_controllers();
    for (std::size_t j = 0; j < wave.nodes.size(); ++j) {
      auto& lc = *lcs[wave.nodes[j]];
      if (!wave_node_done_[j]) {
        if (lc.alive()) lc.cancel_drain();
        continue;
      }
      if (lc.power_state() == energy::PowerState::kBooting) {
        // Mid-boot: swap the binary back before the node comes up rather
        // than interrupting the boot (restart() is not re-entrant).
        lc.set_software_version(wave_from_versions_[j]);
      } else {
        restart_lc(wave.nodes[j], wave_from_versions_[j]);
      }
    }
  }
  state_ = UpgradeState::kRolledBack;
}

void RollingUpgrade::trace_event(std::string_view kind, std::string_view detail) {
  system_.trace().record("upgrade", kind, detail);
}

}  // namespace snooze::ops
