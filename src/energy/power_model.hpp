// Server power model.
//
// The standard linear model used in the consolidation literature (and in the
// GRID'11 evaluation this paper summarizes): a powered-on server draws
// P_idle at zero utilization, rising linearly to P_max at full CPU
// utilization. Suspend-to-RAM draws a small constant, power-off nearly zero.
// Transition latencies model suspend/resume/boot delays, which Snooze's
// energy manager must amortize against the achieved idle time.
#pragma once

namespace snooze::energy {

/// Power state of a physical server.
enum class PowerState { kOn, kSuspended, kOff, kSuspending, kResuming, kBooting };

struct PowerModel {
  double p_idle_w = 171.0;     ///< on, 0% CPU (typical 2009-era 1U server)
  double p_max_w = 218.0;      ///< on, 100% CPU
  double p_suspend_w = 9.0;    ///< suspend-to-RAM
  double p_off_w = 4.5;        ///< soft-off (WoL NIC powered)
  double suspend_latency_s = 8.0;
  double resume_latency_s = 10.0;
  double boot_latency_s = 90.0;

  /// Instantaneous draw for a server in `state` at CPU utilization
  /// `cpu_utilization` in [0, 1]. Transitional states draw full idle power
  /// (conservative: the machine is busy saving/restoring context).
  [[nodiscard]] double power(PowerState state, double cpu_utilization) const;

  /// Draw of a powered-on server at the given utilization.
  [[nodiscard]] double power_on(double cpu_utilization) const;
};

/// Energy cost of running an algorithm on a management node: the GRID'11
/// evaluation explicitly includes "energy spent into the computation" when
/// comparing ACO (slow, good packing) against FFD (fast, worse packing).
struct ComputationEnergy {
  double runtime_s = 0.0;
  double node_power_w = 0.0;
  [[nodiscard]] double joules() const { return runtime_s * node_power_w; }
};

}  // namespace snooze::energy
