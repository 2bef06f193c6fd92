// Virtual machine model.
//
// A VM has a *requested* capacity (what the client asked for — the packing
// input) and a time-varying *utilization* multiplier in [0,1] driving its
// actual consumption (what monitoring observes). The utilization source is
// injected as a function so the workload library can supply traces without a
// dependency cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "hypervisor/resources.hpp"

namespace snooze::hypervisor {

using VmId = std::uint64_t;
constexpr VmId kNullVm = 0;

/// Utilization multiplier at virtual time t, in [0, 1]. Must be a pure
/// function of t: a Vm reads its trace once per instant and answers repeated
/// reads at that instant (energy meter, host usage, monitoring report) from
/// the value it remembered.
using UtilizationFn = std::function<double(double t)>;

enum class VmState { kPending, kBooting, kRunning, kMigrating, kStopped, kFailed };

struct VmSpec {
  VmId id = kNullVm;
  ResourceVector requested;    ///< reserved capacity (packing input)
  double memory_mb = 2048.0;   ///< RAM footprint, drives migration duration
  double dirty_rate_mbps = 50.0;  ///< page-dirty rate during live migration
};

class Vm {
 public:
  explicit Vm(VmSpec spec, UtilizationFn utilization = nullptr);

  [[nodiscard]] VmId id() const { return spec_.id; }
  [[nodiscard]] const VmSpec& spec() const { return spec_; }
  [[nodiscard]] VmState state() const { return state_; }

  /// Actual consumption at time t: requested * utilization(t).
  [[nodiscard]] ResourceVector used(double t) const;

  /// Utilization multiplier at time t (1.0 if no trace installed).
  [[nodiscard]] double utilization(double t) const;

 private:
  // Only the hosting Host moves the state, so its change count sees it.
  friend class Host;
  void set_state(VmState state) { state_ = state; }

  VmSpec spec_;
  VmState state_ = VmState::kPending;
  UtilizationFn utilization_;
  /// The last instant the trace was read at (NaN: none, never equal to a
  /// time) and its clamped value.
  mutable double read_at_ = std::numeric_limits<double>::quiet_NaN();
  mutable double read_value_ = 1.0;
};

}  // namespace snooze::hypervisor
