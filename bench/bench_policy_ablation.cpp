// Experiment E10 — scheduling-policy ablation (paper §II.C).
//
// The paper names the policy points of the two-level scheduler: GL dispatch
// ("round robin fashion or load balanced across the GMs"), GM placement
// ("round robin or first-fit"), and LC->GM assignment. This bench runs the
// same workload through every combination on a live simulated deployment
// and reports what each choice buys: packing density (hosts actually used),
// how evenly VMs spread over GMs, and submission latency.
//
// Artifact: --json=<path> writes every combination's deterministic numbers.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

struct RunStats {
  bool ok = false;
  std::size_t placed = 0;
  std::size_t hosts_with_vms = 0;
  double gm_vm_stddev = 0.0;  // imbalance of VMs across GMs
  double lat_p50 = 0.0;
};

RunStats run(PlacementPolicyKind placement, DispatchPolicyKind dispatch,
             std::uint64_t seed) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 4;
  spec.local_controllers = 36;
  spec.seed = seed;
  spec.config.placement_policy = placement;
  spec.config.dispatch_policy = dispatch;
  SnoozeSystem system(spec);
  system.start();
  RunStats out;
  if (!system.run_until_stable(120.0)) return out;

  workload::ClassVmGenerator gen(workload::default_vm_classes(), seed);
  std::vector<VmDescriptor> vms;
  for (int i = 0; i < 72; ++i) {
    const auto req = gen.next();
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.7;
    vms.push_back(system.make_vm(req.requested, 0.0, trace));
  }
  util::Percentiles latencies;  // of the accepted submissions
  system.client().submit_all(vms, 0.1, [&latencies](bool ok, net::Address, sim::Time latency) {
    if (ok) latencies.add(latency);
  });
  system.engine().run_until(system.engine().now() + 120.0);

  out.ok = true;
  out.placed = system.client().succeeded();
  for (const auto& lc : system.local_controllers()) {
    if (lc->vm_count() > 0) ++out.hosts_with_vms;
  }
  util::RunningStats per_gm;
  for (const auto& gm : system.group_managers()) {
    if (gm->alive() && !gm->is_leader()) {
      per_gm.add(static_cast<double>(gm->vm_count()));
    }
  }
  out.gm_vm_stddev = per_gm.stddev();
  out.lat_p50 = latencies.median();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string json_path = args.get("json", "");

  bench::print_header(
      "E10: two-level scheduling policy ablation (36 LCs, 3+1 GMs, 72 VMs)",
      "GL dispatch: round-robin / load-balanced; GM placement: round-robin / "
      "first-fit (paper §II.C)");

  util::Table table({"placement", "dispatch", "placed", "hosts used",
                     "GM imbalance (sd)", "lat p50 s"});
  struct P {
    PlacementPolicyKind kind;
    const char* name;
  };
  struct D {
    DispatchPolicyKind kind;
    const char* name;
  };
  std::ostringstream json_runs;  // one JSON row per combination
  for (const P& p : {P{PlacementPolicyKind::kFirstFit, "first-fit"},
                     P{PlacementPolicyKind::kRoundRobin, "round-robin"},
                     P{PlacementPolicyKind::kBestFit, "best-fit"}}) {
    for (const D& d : {D{DispatchPolicyKind::kRoundRobin, "round-robin"},
                       D{DispatchPolicyKind::kLeastLoaded, "least-loaded"}}) {
      const RunStats s = run(p.kind, d.kind, seed);
      if (json_runs.tellp() > 0) json_runs << ",\n";
      json_runs << "    {\"placement\": \"" << p.name << "\", \"dispatch\": \"" << d.name
                << "\", \"ok\": " << (s.ok ? "true" : "false")
                << ", \"placed\": " << s.placed << ", \"hosts_used\": " << s.hosts_with_vms
                << ", \"gm_vm_stddev\": " << bench::json_number(s.gm_vm_stddev)
                << ", \"lat_p50_s\": " << bench::json_number(s.lat_p50) << "}";
      if (!s.ok) {
        table.add_row({p.name, d.name, "failed", "-", "-", "-"});
        continue;
      }
      table.add_row({p.name, d.name, std::to_string(s.placed) + "/72",
                     std::to_string(s.hosts_with_vms),
                     util::Table::num(s.gm_vm_stddev, 2),
                     util::Table::num(s.lat_p50, 3)});
    }
  }
  table.print();

  std::printf("\nshape check: first-fit/best-fit placement concentrates VMs on\n"
              "few hosts (the energy-friendly choice); round-robin placement\n"
              "spreads them (the performance-friendly choice) — exactly the\n"
              "trade-off the relocation and reconfiguration policies then\n"
              "manage at runtime. Latency is unaffected by any combination.\n"
              "\nnote the herd effect on least-loaded dispatch: GM summaries\n"
              "refresh every 2 s, so a burst of submissions all sees the same\n"
              "'least loaded' GM and piles onto it (high imbalance) — the\n"
              "paper's own caveat that 'summary information is not sufficient\n"
              "to take exact dispatching decisions', and why round-robin is\n"
              "the safer default under bursty arrivals.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"policy_ablation\",\n  \"seed\": " << seed
        << ",\n  \"runs\": [\n" << json_runs.str() << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
