// Shared core types: VM descriptors that travel over the wire, and the
// trace specification that lets a Local Controller reconstruct a VM's
// utilization behaviour locally (functions cannot cross the network).
#pragma once

#include <cstdint>

#include "hypervisor/resources.hpp"
#include "hypervisor/vm.hpp"

namespace snooze::core {

using hypervisor::ResourceVector;
using hypervisor::VmId;

/// Serializable description of a utilization trace.
struct TraceSpec {
  enum class Kind { kConstant, kSinusoidal, kRandomSteps, kOnOff };
  Kind kind = Kind::kConstant;
  // Parameter meaning by kind:
  //   kConstant:    a = value
  //   kSinusoidal:  a = mean, b = amplitude, c = period, d = phase
  //   kRandomSteps: a = lo, b = hi, c = interval
  //   kOnOff:       a = low, b = high, c = period, d = duty
  double a = 1.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
  std::uint64_t seed = 0;
};

/// Materialize the trace function described by `spec`.
hypervisor::UtilizationFn make_trace(const TraceSpec& spec);

/// A client's VM request as it travels through EP -> GL -> GM -> LC.
struct VmDescriptor {
  VmId id = hypervisor::kNullVm;
  ResourceVector requested;
  double memory_mb = 2048.0;
  double dirty_rate_mbps = 50.0;
  double lifetime_s = 0.0;  ///< 0 = runs until stopped
  TraceSpec trace;
};

}  // namespace snooze::core
