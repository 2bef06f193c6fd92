// Rolling-upgrade orchestrator: drain-and-restart the fleet in waves under
// live traffic, gated on SLO health.
//
// Nodes carry a software version; the orchestrator walks every LC and GM
// whose version is below the target through drain → restart → rejoin:
//
//   LC wave (wave_size nodes): begin_drain() stops new placements and
//   inbound adoptions (the draining flag propagates to the GM with the next
//   monitoring report and excludes the node from every placement policy);
//   the owning GM evacuates remaining VMs by live migration. When the node
//   is empty — or drain_timeout forces the issue — it is restarted with the
//   new version and rejoins the hierarchy like any fresh boot, re-minting
//   its lease epoch so a stale GM can never command the new incarnation.
//
//   GM wave (always one node): begin_drain() resigns its LCs back into the
//   hierarchy and, if the node is the acting GL, steps down first — the
//   restart then rides the exact failover/re-election path of normal crash
//   recovery, epoch fences and all. The GL-at-start is ordered last so at
//   most one election is caused by the upgrade itself.
//
// Between waves the orchestrator settles, then gates: no wave starts while
// the hierarchy is headless (no GL, or GL still reconciling) or any SLO
// alert is firing. A gate failure pauses the upgrade; hierarchy pauses wait
// indefinitely (failover is someone else's job), but an SLO burn that stays
// firing for rollback_after rolls the current wave back to the old version
// and aborts — the blast radius of a bad build is one wave.
#pragma once

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "obs/health_monitor.hpp"
#include "sim/actor.hpp"

namespace snooze::ops {

struct UpgradeConfig {
  std::uint32_t target_version = 2;
  std::size_t wave_size = 2;         ///< LCs per wave (GM waves are single-node)
  sim::Time check_period = 1.0;      ///< state-machine poll cadence
  /// Force-restart an LC that will not empty. Live migrations serialize on
  /// the node's migration link at ~35 s per default-sized VM, so the default
  /// budget covers a handful of queued evacuations before giving up.
  sim::Time drain_timeout = 180.0;
  sim::Time settle_time = 15.0;      ///< soak after a wave before gating the next
  sim::Time rollback_after = 60.0;   ///< SLO-paused this long → roll back
};

enum class UpgradeState { kIdle, kRunning, kPaused, kDone, kRolledBack };

class RollingUpgrade final : public sim::Actor {
 public:
  /// `monitor` supplies the SLO gate; pass nullptr to gate on hierarchy
  /// health only (no GL / reconciling still pauses).
  RollingUpgrade(core::SnoozeSystem& system, obs::HealthMonitor* monitor,
                 UpgradeConfig config = {});

  /// Plan the waves from current node versions and begin executing.
  void start();

  [[nodiscard]] UpgradeState state() const { return state_; }
  [[nodiscard]] bool finished() const {
    return state_ == UpgradeState::kDone || state_ == UpgradeState::kRolledBack;
  }
  [[nodiscard]] std::size_t wave_count() const { return waves_.size(); }
  [[nodiscard]] std::uint64_t waves_completed() const { return waves_completed_; }
  [[nodiscard]] std::uint64_t nodes_upgraded() const { return nodes_upgraded_; }
  [[nodiscard]] std::uint64_t pauses() const { return pauses_; }
  [[nodiscard]] std::uint64_t rollbacks() const { return rollbacks_; }
  [[nodiscard]] std::uint64_t forced_drains() const { return forced_drains_; }
  [[nodiscard]] const UpgradeConfig& config() const { return config_; }

 private:
  struct Wave {
    bool gm_wave = false;
    std::vector<std::size_t> nodes;  ///< indices into lcs / gms of the system
  };
  enum class Phase { kGate, kDraining, kRejoining, kSettling };

  void tick();
  [[nodiscard]] bool gate_ok() const;
  [[nodiscard]] bool slo_firing() const;
  void enter_pause();
  void maybe_resume();
  void begin_wave();
  void evacuate_wave();
  void step_draining();
  void step_rejoining();
  void step_settling();
  void restart_lc(std::size_t index, std::uint32_t to_version);
  void roll_back();
  void trace_event(std::string_view kind, std::string_view detail = {});

  core::SnoozeSystem& system_;
  obs::HealthMonitor* monitor_;
  UpgradeConfig config_;

  UpgradeState state_ = UpgradeState::kIdle;
  std::vector<Wave> waves_;
  std::size_t wave_index_ = 0;
  Phase phase_ = Phase::kGate;
  /// Versions the current wave's nodes ran before the bump (rollback target),
  /// parallel to waves_[wave_index_].nodes; empty until nodes restart.
  std::vector<std::uint32_t> wave_from_versions_;
  std::vector<bool> wave_node_done_;  ///< restarted with the new version

  sim::Time drain_started_ = 0.0;
  sim::Time last_evacuate_ = -1e18;
  sim::Time rejoin_started_ = 0.0;
  sim::Time settle_until_ = 0.0;
  sim::Time pause_started_ = -1.0;   ///< < 0: not paused
  bool pause_was_slo_ = false;       ///< pause caused by a firing SLO

  std::uint64_t waves_completed_ = 0;
  std::uint64_t nodes_upgraded_ = 0;
  std::uint64_t pauses_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t forced_drains_ = 0;
};

}  // namespace snooze::ops
