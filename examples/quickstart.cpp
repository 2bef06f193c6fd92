// Quickstart: bring up a small simulated Snooze deployment, watch the
// hierarchy self-organize, submit a batch of VMs through the client layer,
// and print what happened. Mirrors the paper's Figure 1 architecture: Entry
// Points -> Group Leader -> Group Managers -> Local Controllers.
//
// Run: ./quickstart [--lcs=8] [--gms=2] [--vms=10] [--seed=42]

#include <cstdio>

#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"

using namespace snooze;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);

  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = static_cast<std::size_t>(args.get_int("gms", 2));
  spec.local_controllers = static_cast<std::size_t>(args.get_int("lcs", 8));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.config.placement_policy = core::PlacementPolicyKind::kFirstFit;
  spec.config.dispatch_policy = core::DispatchPolicyKind::kRoundRobin;

  core::SnoozeSystem system(spec);
  system.start();

  std::printf("== booting the hierarchy ==\n");
  const bool stable = system.run_until_stable(60.0);
  std::printf("%s", system.hierarchy_dump().c_str());
  if (!stable) {
    std::printf("hierarchy failed to stabilize\n");
    return 1;
  }

  const auto n_vms = static_cast<std::size_t>(args.get_int("vms", 10));
  std::printf("\n== submitting %zu VMs ==\n", n_vms);
  workload::ClassVmGenerator gen(workload::default_vm_classes(), spec.seed);
  std::vector<core::VmDescriptor> vms;
  for (std::size_t i = 0; i < n_vms; ++i) {
    const auto request = gen.next();
    core::TraceSpec trace;
    trace.kind = core::TraceSpec::Kind::kConstant;
    trace.a = 0.7;
    vms.push_back(system.make_vm(request.requested, /*lifetime_s=*/0.0, trace));
  }
  std::size_t replies = 0;
  util::Percentiles latencies;  // of the accepted submissions
  system.client().submit_all(vms, /*inter_arrival=*/0.25,
                             [&](bool ok, net::Address, sim::Time latency) {
    ++replies;
    if (ok) latencies.add(latency);
  });
  system.engine().run_until(system.engine().now() + 120.0);

  std::printf("submissions: %llu ok, %llu failed (done=%s)\n",
              static_cast<unsigned long long>(system.client().succeeded()),
              static_cast<unsigned long long>(system.client().failed()),
              replies == n_vms ? "yes" : "no");
  if (latencies.count() > 0) {
    std::printf("submission latency: mean=%.3fs p50=%.3fs max=%.3fs\n",
                latencies.mean(), latencies.median(), latencies.max());
  }
  std::printf("\n== final state ==\n%s", system.hierarchy_dump().c_str());
  std::printf("running VMs: %zu\n", system.running_vm_count());
  std::printf("total energy so far: %.1f kJ\n", system.total_energy() / 1000.0);
  std::printf("useful work: %.1f VM-seconds\n", system.total_work());
  return system.running_vm_count() == n_vms ? 0 : 1;
}
