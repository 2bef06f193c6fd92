#include "energy/energy_meter.hpp"

namespace snooze::energy {

EnergyMeter::EnergyMeter(PowerModel model, double start_time)
    : model_(model), power_(start_time, model.p_idle_w) {}

void EnergyMeter::update(double t, PowerState state, double cpu_utilization) {
  // Close the segment spent in the previous state before switching.
  const double elapsed = t - power_.last_update();
  if (elapsed > 0.0) {
    class_joules_[static_cast<std::size_t>(power_class(state_))] +=
        power_.current() * elapsed;
  }
  state_ = state;
  power_.set(t, model_.power(state, cpu_utilization));
}

std::array<double, kNumPowerClasses> EnergyMeter::joules_by_class(double t) const {
  std::array<double, kNumPowerClasses> out = class_joules_;
  if (t > power_.last_update()) {
    out[static_cast<std::size_t>(power_class(state_))] +=
        power_.current() * (t - power_.last_update());
  }
  return out;
}

}  // namespace snooze::energy
