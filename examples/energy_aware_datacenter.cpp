// Example: the full energy-management story of the paper (§III).
//
// A datacenter is loaded with VMs spread across the fleet; Snooze then
//   1. periodically runs ACO reconfiguration on each Group Manager, packing
//      the VMs onto as few LCs as possible,
//   2. detects the freed LCs going idle and suspends them after the
//      administrator-defined idle threshold,
//   3. wakes a node up again when a new VM arrives and needs the capacity.
// The example prints a timeline of running/suspended nodes and the energy
// consumed, then submits a late VM to demonstrate wake-on-demand.
//
// Run: ./energy_aware_datacenter [--lcs=24] [--vms=16] [--seed=42]

#include <cstdio>

#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = static_cast<std::size_t>(args.get_int("lcs", 24));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.config.placement_policy = PlacementPolicyKind::kRoundRobin;  // spread first
  spec.config.energy_savings = true;
  spec.config.idle_threshold = 60.0;
  spec.config.consolidation = ConsolidationKind::kAco;
  spec.config.reconfiguration_period = 120.0;
  spec.config.underload_threshold = 0.0;

  SnoozeSystem system(spec);
  system.start();
  if (!system.run_until_stable(120.0)) {
    std::printf("hierarchy failed to form\n");
    return 1;
  }

  const auto n_vms = static_cast<std::size_t>(args.get_int("vms", 16));
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < n_vms; ++i) {
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.8;
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, trace));
  }
  system.client().submit_all(vms, 0.2);

  std::printf("%zu LCs, %zu VMs placed round-robin (deliberately spread out)\n\n",
              spec.local_controllers, n_vms);
  util::Table timeline({"t (s)", "LCs on", "LCs suspended", "running VMs",
                        "energy so far kJ", "note"});
  const char* notes[] = {"VMs spread across the fleet",
                         "ACO reconfiguration packs them",
                         "freed nodes hit the idle threshold",
                         "suspended fleet draws ~5% idle power",
                         "",
                         ""};
  for (int step = 0; step < 6; ++step) {
    system.engine().run_until(system.engine().now() + 120.0);
    const std::size_t suspended = system.suspended_lc_count();
    std::size_t on = 0;
    for (const auto& lc : system.local_controllers()) {
      if (lc->alive() && lc->power_state() == energy::PowerState::kOn) ++on;
    }
    timeline.add_row({util::Table::num(system.engine().now(), 0), std::to_string(on),
                      std::to_string(suspended),
                      std::to_string(system.running_vm_count()),
                      util::Table::num(system.total_energy() / 1000.0, 0),
                      notes[step]});
  }
  timeline.print();

  // Wake-on-demand: a late VM arrives after the fleet has been suspended —
  // sized so it cannot fit on the few still-powered nodes, forcing the GM to
  // wake a suspended one.
  std::printf("\nsubmitting one more (large) VM into the mostly-suspended "
              "datacenter...\n");
  const double t_submit = system.engine().now();
  bool ok = false;
  double latency = 0.0;
  system.client().submit(
      system.make_vm({0.9, 0.9, 0.9}, 0.0, TraceSpec{}),
      [&](bool success, net::Address, sim::Time l) {
        ok = success;
        latency = l;
      });
  system.engine().run_until(t_submit + 90.0);
  std::printf("placed: %s, end-to-end latency %.1fs (includes waking a node: "
              "~10s resume + 2s boot)\n",
              ok ? "yes" : "no", latency);

  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  std::printf("\ntotals: %llu reconfigurations, %llu migrations, %llu suspends, "
              "%llu wakeups\n",
              static_cast<unsigned long long>(metrics.value("gm.reconfigurations")),
              static_cast<unsigned long long>(metrics.value("gm.migrations_completed")),
              static_cast<unsigned long long>(metrics.value("gm.suspends")),
              static_cast<unsigned long long>(metrics.value("gm.wakeups")));
  return 0;
}
