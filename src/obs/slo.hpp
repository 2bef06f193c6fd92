// SLI/SLO evaluation with burn/clear hysteresis.
//
// The evaluator is fed one value per SLI per sampling tick and compares it
// to its threshold (all SLOs are maxima: "stay below"). An alert FIRES after
// `burn_samples` consecutive breaching ticks — a single bad sample is noise,
// a streak is an error-budget burn — and CLEARS only after `clear_samples`
// consecutive ticks below `clear_fraction * threshold`, so an SLI oscillating
// around its threshold cannot flap the alert. NaN means "no data": it resets
// the burn streak but does not advance the clear streak (absence of evidence
// neither fires nor clears).
//
// State transitions are returned to the caller (the HealthMonitor), which
// records them in the sim trace so golden tests and chaos invariants can pin
// exactly when alerts fired.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/config.hpp"

namespace snooze::obs {

struct SloTransition {
  std::string sli;
  bool fired = false;  ///< true: Ok -> Firing; false: Firing -> Ok
  double value = 0.0;
  double threshold = 0.0;
};

class SloEvaluator {
 public:
  enum class AlertState { kOk, kFiring };

  struct SliStatus {
    double value = 0.0;       ///< last observed value (NaN = no data yet)
    double threshold = 0.0;
    AlertState state = AlertState::kOk;
    int burn_streak = 0;      ///< consecutive breaching samples
    int clear_streak = 0;     ///< consecutive clearly-good samples while firing
    std::uint64_t times_fired = 0;
    [[nodiscard]] bool firing() const { return state == AlertState::kFiring; }
  };

  using StatusMap = std::map<std::string, SliStatus, std::less<>>;
  /// One SLI: its name and status.
  using Sli = StatusMap::value_type;

  explicit SloEvaluator(const core::SloConfig& config) : config_(config) {}

  /// The SLI named `sli`, created on first use. The reference stays valid
  /// for the evaluator's lifetime, so a caller that feeds the same SLIs on
  /// every tick looks each one up once.
  Sli& track(std::string_view sli);

  /// Feed one sample of an SLI (one this evaluator's track() returned);
  /// returns the transition if the alert state changed on this sample. `now`
  /// (virtual time, seconds) timestamps any transition for the
  /// trailing-window flap counter.
  std::optional<SloTransition> observe(Sli& sli, double value, double threshold,
                                       double now = 0.0);
  std::optional<SloTransition> observe(std::string_view sli, double value,
                                       double threshold, double now = 0.0) {
    return observe(track(sli), value, threshold, now);
  }

  /// Every SLI by name (sorted, for the renderers).
  [[nodiscard]] const StatusMap& status() const { return slis_; }
  /// SLIs firing now (kept up to date on transitions).
  [[nodiscard]] std::size_t firing_count() const { return firing_; }

  /// Alert flaps: fire + clear transitions across all SLIs inside the
  /// trailing SloConfig::flap_window_s window ending at `now`. A first-class
  /// SLI for soak gating — a stable run transitions rarely, a flapping one
  /// oscillates. O(expired) amortized; the deque is bounded by the window.
  [[nodiscard]] double flaps_in_window(double now);
  [[nodiscard]] std::uint64_t total_transitions() const { return total_transitions_; }
  [[nodiscard]] const core::SloConfig& config() const { return config_; }

 private:
  void prune_transitions(double now);

  core::SloConfig config_;
  StatusMap slis_;
  std::size_t firing_ = 0;
  std::deque<double> transition_times_;  ///< pruned to the flap window
  std::uint64_t total_transitions_ = 0;
};

}  // namespace snooze::obs
