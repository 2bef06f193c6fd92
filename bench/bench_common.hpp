// Shared helpers for the paper-reproduction benchmark binaries.
#pragma once

#include <charconv>
#include <cstdio>
#include <string>
#include <vector>

#include "consolidation/instance.hpp"
#include "workload/vm_generator.hpp"

namespace snooze::bench {

/// GRID'11-style instance: homogeneous hosts, per-dimension uniform VM
/// demands. `hosts` defaults to one per VM (the packing decides how many are
/// actually used).
inline consolidation::Instance make_instance(std::size_t n_vms, std::uint64_t seed,
                                             double lo = 0.05, double hi = 0.45) {
  workload::UniformVmGenerator gen(lo, hi, seed);
  std::vector<hypervisor::ResourceVector> demands;
  demands.reserve(n_vms);
  for (std::size_t i = 0; i < n_vms; ++i) demands.push_back(gen.next().requested);
  return consolidation::Instance::homogeneous(std::move(demands), n_vms);
}

/// `value` in its shortest round-trip form, so a committed artifact pins the
/// exact double rather than six significant digits of it.
inline std::string json_number(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

inline void print_header(const std::string& title, const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("================================================================\n");
}

}  // namespace snooze::bench
