// Experiment E17 — interference-aware placement vs capacity-only placement.
//
// The paper's hierarchy schedules on coarse capacity vectors; real
// memory-subsystem contention (shared LLC / membus) makes co-located
// cache-hungry VMs run slower than their CPU reservation suggests. This
// bench runs the same socketed cluster and profiled workload twice:
//
//   capacity run  first-fit placement, interference management off — VMs
//                 pack densely and cache-heavy neighbors contend
//   aware run     kLeastInterference placement + interference anomaly
//                 relocation — the predicted-penalty score spreads noisy
//                 working sets across sockets
//
// Both runs keep every host powered (energy savings off), so static power
// is identical and the energy-per-VM-hour comparison isolates the dynamic
// cost of the interference-aware moves.
//
// Gates (non-zero exit on violation):
//   --min-capacity-p99   contention floor for the capacity run (proves the
//                        workload actually interferes; 0 disables)
//   --max-aware-p99      p99 penalty ceiling for the aware run
//   --max-energy-ratio   aware/capacity energy-per-VM-hour ceiling
// plus fixed gates: equal VMs accepted, aware p99 strictly below capacity
// p99, and aware degraded VM-seconds below the capacity run's.
// Artifacts: --json (tracked as BENCH_interference.json).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "interference/model.hpp"
#include "obs/health_monitor.hpp"
#include "util/args.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

struct RunOutcome {
  std::uint64_t accepted = 0;
  double p99_penalty = -1.0;       ///< fleet p99 of (1 - throughput multiplier)
  double degraded_vm_s = -1.0;     ///< integral of summed penalties over time
  double energy_per_vm_hour = -1.0;
  std::uint64_t relocations = 0;   ///< interference-triggered migrations
};

RunOutcome run_one(std::uint64_t seed, bool aware) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 12;
  spec.seed = seed;
  spec.host_template.topology = interference::TopologySpec::uniform(2, 8.0, 10.0);
  if (aware) {
    spec.config.placement_policy = PlacementPolicyKind::kLeastInterference;
    spec.config.interference_aware = true;
    // Without this term the underload consolidator re-packs what the
    // relocation planner just spread, and the two fight forever; pricing
    // interference into the packing score makes them pull the same way.
    spec.config.consolidation_interference_weight = 3.0;
  }
  SnoozeSystem system(spec);
  system.start();
  system.run_until_stable(300.0);

  obs::HealthMonitor monitor(system);
  monitor.start();
  const double t0 = system.engine().now();

  // Mixed fleet: half the VMs are cache-hungry, the rest are progressively
  // quieter; the cycle includes one profile-less VM so both runs also carry
  // opaque legacy load.
  const std::vector<interference::MemProfile> profiles = {
      {interference::CacheIntensity::kHigh, 6.0, 6.0},
      {interference::CacheIntensity::kHigh, 5.0, 4.0},
      {interference::CacheIntensity::kMedium, 4.0, 4.0},
      {interference::CacheIntensity::kLow, 2.0, 2.0},
      {},
  };
  // Sized so one group can host the fleet with socket slack (placement and
  // relocation are GM-scoped): 10 VMs, 8 of them profiled, against a group's
  // 6 LCs x 2 sockets. Capacity-only first-fit still packs them onto two
  // hosts and contends three cache-heavy working sets per socket.
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < 10; ++i) {
    vms.push_back(system.make_vm({0.15, 0.15, 0.15}, 0.0, {},
                                 profiles[i % profiles.size()]));
  }
  system.client().submit_all(vms, 1.0);
  system.engine().run_until(t0 + 260.0);
  monitor.sample_now();

  RunOutcome out;
  out.accepted = system.client().succeeded();
  out.p99_penalty = monitor.interference_p99();
  out.degraded_vm_s = monitor.degraded_vm_seconds();
  const double vm_hours = system.total_work() / 3600.0;
  if (vm_hours > 0.0) out.energy_per_vm_hour = system.total_energy() / vm_hours;
  out.relocations = system.telemetry().metrics().value("gm.interference_events");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double min_capacity_p99 = args.get_double("min-capacity-p99", 0.10);
  const double max_aware_p99 = args.get_double("max-aware-p99", 0.10);
  const double max_energy_ratio = args.get_double("max-energy-ratio", 1.05);
  const std::string json_path = args.get("json", "");

  bench::print_header(
      "E17: interference-aware vs capacity-only placement",
      "capacity vectors alone miss shared-cache contention; socket-level "
      "profiles let the hierarchy deliver the reserved throughput");

  const RunOutcome capacity = run_one(seed, /*aware=*/false);
  const RunOutcome aware = run_one(seed, /*aware=*/true);

  std::printf("\n%-12s %8s %14s %16s %18s %6s\n", "run", "vms", "p99_penalty",
              "degraded_vm_s", "energy_j_per_vmh", "moves");
  auto row = [](const char* name, const RunOutcome& o) {
    std::printf("%-12s %8llu %14.4f %16.2f %18.1f %6llu\n", name,
                static_cast<unsigned long long>(o.accepted), o.p99_penalty,
                o.degraded_vm_s, o.energy_per_vm_hour,
                static_cast<unsigned long long>(o.relocations));
  };
  row("capacity", capacity);
  row("aware", aware);
  const double energy_ratio =
      capacity.energy_per_vm_hour > 0.0
          ? aware.energy_per_vm_hour / capacity.energy_per_vm_hour
          : -1.0;
  std::printf("energy ratio (aware/capacity): %.4f\n", energy_ratio);

  bool ok = true;
  auto gate = [&ok](bool pass, const char* what, double value, double limit) {
    std::printf("gate %-22s %10.4f vs %10.4f : %s\n", what, value, limit,
                pass ? "ok" : "FAIL");
    ok = ok && pass;
  };
  gate(capacity.accepted == 10 && aware.accepted == 10, "accepted==10",
       static_cast<double>(aware.accepted), 10.0);
  if (min_capacity_p99 > 0.0) {
    gate(capacity.p99_penalty >= min_capacity_p99, "capacity_p99>=",
         capacity.p99_penalty, min_capacity_p99);
  }
  gate(aware.p99_penalty >= 0.0 && aware.p99_penalty <= max_aware_p99,
       "aware_p99<=", aware.p99_penalty, max_aware_p99);
  gate(aware.p99_penalty < capacity.p99_penalty, "aware_p99<capacity",
       aware.p99_penalty, capacity.p99_penalty);
  gate(aware.degraded_vm_s >= 0.0 && aware.degraded_vm_s < capacity.degraded_vm_s,
       "aware_degraded<", aware.degraded_vm_s, capacity.degraded_vm_s);
  gate(energy_ratio > 0.0 && energy_ratio <= max_energy_ratio,
       "energy_ratio<=", energy_ratio, max_energy_ratio);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    auto emit = [&out](const char* name, const RunOutcome& o, bool last) {
      out << "  \"" << name << "\": {\"accepted\": " << o.accepted
          << ", \"p99_penalty\": " << o.p99_penalty
          << ", \"degraded_vm_s\": " << o.degraded_vm_s
          << ", \"energy_per_vm_hour_j\": " << o.energy_per_vm_hour
          << ", \"interference_moves\": " << o.relocations << "}"
          << (last ? "\n" : ",\n");
    };
    out << "{\n  \"benchmark\": \"interference\",\n  \"seed\": " << seed << ",\n";
    emit("capacity", capacity, false);
    emit("aware", aware, false);
    out << "  \"energy_ratio\": " << energy_ratio << ",\n";
    out << "  \"gates\": {\"min_capacity_p99\": " << min_capacity_p99
        << ", \"max_aware_p99\": " << max_aware_p99
        << ", \"max_energy_ratio\": " << max_energy_ratio << "},\n";
    out << "  \"ok\": " << (ok ? "true" : "false") << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return ok ? 0 : 1;
}
