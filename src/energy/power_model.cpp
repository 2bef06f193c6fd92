#include "energy/power_model.hpp"

#include <algorithm>

namespace snooze::energy {

double PowerModel::power_on(double cpu_utilization) const {
  const double u = std::clamp(cpu_utilization, 0.0, 1.0);
  return p_idle_w + (p_max_w - p_idle_w) * u;
}

double PowerModel::power(PowerState state, double cpu_utilization) const {
  switch (state) {
    case PowerState::kOn:
      return power_on(cpu_utilization);
    case PowerState::kSuspended:
      return p_suspend_w;
    case PowerState::kOff:
      return p_off_w;
    case PowerState::kSuspending:
    case PowerState::kResuming:
    case PowerState::kBooting:
      return p_idle_w;
  }
  return p_idle_w;
}

}  // namespace snooze::energy
