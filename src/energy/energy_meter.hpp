// Per-server energy meter: integrates instantaneous power over virtual time.
//
// Besides the total, the meter splits cumulative joules by power-state class
// (on / suspended / off) so "how much energy did suspended nodes still burn"
// has one source of truth: the energy-per-VM-hour SLI (src/obs) and
// bench_energy_savings both read this split instead of re-deriving it.
#pragma once

#include <array>
#include <cstddef>

#include "energy/power_model.hpp"
#include "util/stats.hpp"

namespace snooze::energy {

/// Coarse accounting class of a PowerState. Transitional states (suspending,
/// resuming, booting) draw full idle power and are counted as kOnClass —
/// the machine is busy saving/restoring context, not saving energy.
enum class PowerClass : std::size_t { kOn = 0, kSuspended = 1, kOff = 2 };
constexpr std::size_t kNumPowerClasses = 3;

[[nodiscard]] constexpr PowerClass power_class(PowerState state) {
  switch (state) {
    case PowerState::kSuspended: return PowerClass::kSuspended;
    case PowerState::kOff: return PowerClass::kOff;
    default: return PowerClass::kOn;
  }
}

class EnergyMeter {
 public:
  EnergyMeter(PowerModel model, double start_time = 0.0);

  /// Report a state/utilization change at virtual time `t` (monotone).
  void update(double t, PowerState state, double cpu_utilization);

  /// Total energy consumed up to time `t`, in joules.
  [[nodiscard]] double joules(double t) const { return power_.integral(t); }

  /// Energy consumed in each power-state class up to time `t`, indexed by
  /// PowerClass. The classes partition the metered interval: the three
  /// values sum to joules(t) (up to floating-point rounding).
  [[nodiscard]] std::array<double, kNumPowerClasses> joules_by_class(double t) const;

  /// Average power draw over the metered interval, in watts.
  [[nodiscard]] double average_watts(double t) const { return power_.average(t); }

  [[nodiscard]] const PowerModel& model() const { return model_; }
  [[nodiscard]] PowerState state() const { return state_; }

 private:
  PowerModel model_;
  PowerState state_ = PowerState::kOn;
  util::TimeWeighted power_;
  /// Joules accumulated per class for fully elapsed segments; the segment
  /// since the last update() belongs to the current state and is folded in
  /// on read (joules_by_class) so the split stays exact at any query time.
  std::array<double, kNumPowerClasses> class_joules_{};
};

}  // namespace snooze::energy
