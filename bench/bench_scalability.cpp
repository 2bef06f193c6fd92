// Experiment E3 — Snooze scalability (paper §II.F, CCGrid'12).
//
// Paper claim: evaluated on 144 nodes with up to 500 VMs; "negligible cost
// is involved in performing distributed VM management and the system remains
// highly scalable with increasing amounts of VMs and hosts."
//
// Two sweeps:
//   (a) cluster size: 18..144 LCs (GMs scaled with the fleet) — time for the
//       hierarchy to self-organize, and submission latency for a fixed batch;
//   (b) VM count: 50..500 VMs on the full 144-LC deployment — submission
//       latency percentiles and success rate.
//
// The exit status is the paper's shape: 0 iff every submission is accepted
// and every row's p50 latency, in both sweeps, lies within 1 % of the lowest.
// Artifact: --json=<path> writes both sweeps' deterministic numbers.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

std::unique_ptr<SnoozeSystem> boot(std::size_t lcs, std::size_t gms,
                                   std::uint64_t seed, double* stable_time) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = gms;
  spec.local_controllers = lcs;
  spec.seed = seed;
  spec.config.dispatch_policy = DispatchPolicyKind::kLeastLoaded;
  auto system = std::make_unique<SnoozeSystem>(spec);
  system->start();
  const bool ok = system->run_until_stable(300.0);
  *stable_time = ok ? system->engine().now() : -1.0;
  return system;
}

void submit_vms(SnoozeSystem& system, std::size_t n, double inter_arrival) {
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < n; ++i) {
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.6;
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, trace));
  }
  system.client().submit_all(vms, inter_arrival);
  system.engine().run_until(system.engine().now() + inter_arrival * n + 120.0);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string json_path = args.get("json", "");

  // The shape: every submission accepted, p50 flat across every row.
  bool all_accepted = true;
  double p50_lo = std::numeric_limits<double>::infinity();
  double p50_hi = 0.0;
  const auto note_row = [&](std::uint64_t ok, std::size_t n_vms, double p50) {
    all_accepted = all_accepted && ok == n_vms;
    p50_lo = std::min(p50_lo, p50);
    p50_hi = std::max(p50_hi, p50);
  };

  bench::print_header(
      "E3a: hierarchy self-organization and submission latency vs cluster size",
      "the system remains highly scalable with increasing amounts of hosts");

  util::Table by_hosts({"LCs", "GMs", "stabilize s", "VMs", "submit ok", "lat p50 s",
                        "lat p99 s", "ctrl msgs/s"});
  std::ostringstream json_lcs;  // one JSON row per E3a row
  for (std::size_t lcs : {18, 36, 72, 144}) {
    const std::size_t gms = 1 + lcs / 36;  // GL + one GM per 36 nodes
    double stable_time = 0.0;
    auto system = boot(lcs, gms + 1, seed, &stable_time);
    if (stable_time < 0.0) {
      std::fprintf(stderr, "cluster of %zu LCs failed to stabilize\n", lcs);
      all_accepted = false;
      continue;
    }
    // Message/latency numbers come from the always-on metrics registry;
    // counters are monotonic, so diff around the measurement window.
    auto& metrics = system->telemetry().metrics();
    const std::uint64_t msgs0 = metrics.counter("net.messages_sent").value();
    const double t0 = system->engine().now();
    const std::size_t n_vms = lcs;  // fixed per-host submission pressure
    submit_vms(*system, n_vms, 0.1);
    const double elapsed = system->engine().now() - t0;
    const auto msgs = metrics.counter("net.messages_sent").value() - msgs0;
    const auto ok = metrics.counter("client.successes").value();
    const auto& lat = metrics.histogram("client.submit_latency");
    const double p50 = lat.percentile(0.5);
    const double p99 = lat.percentile(0.99);
    const double msgs_s = static_cast<double>(msgs) / elapsed;
    by_hosts.add_row(
        {std::to_string(lcs), std::to_string(gms), util::Table::num(stable_time, 1),
         std::to_string(n_vms), std::to_string(ok) + "/" + std::to_string(n_vms),
         util::Table::num(p50, 3), util::Table::num(p99, 3), util::Table::num(msgs_s, 0)});
    note_row(ok, n_vms, p50);
    if (json_lcs.tellp() > 0) json_lcs << ",\n";
    json_lcs << "    {\"lcs\": " << lcs << ", \"gms\": " << gms
             << ", \"stabilize_s\": " << bench::json_number(stable_time)
             << ", \"vms\": " << n_vms << ", \"accepted\": " << ok
             << ", \"lat_p50_s\": " << bench::json_number(p50)
             << ", \"lat_p99_s\": " << bench::json_number(p99)
             << ", \"ctrl_msgs_s\": " << bench::json_number(msgs_s) << "}";
  }
  by_hosts.print();

  bench::print_header("E3b: submission latency vs number of VMs (144-LC cluster)",
                      "up to 500 VMs were submitted; scalable with amounts of VMs");

  util::Table by_vms({"VMs", "submit ok", "lat mean s", "lat p50 s", "lat p99 s",
                      "running VMs"});
  std::ostringstream json_vms;  // one JSON row per E3b row
  for (std::size_t n_vms : {50, 100, 200, 350, 500}) {
    double stable_time = 0.0;
    auto system = boot(144, 5, seed, &stable_time);
    if (stable_time < 0.0) {
      all_accepted = false;
      continue;
    }
    submit_vms(*system, n_vms, 0.1);
    auto& metrics = system->telemetry().metrics();
    const auto ok = metrics.counter("client.successes").value();
    const auto& lat = metrics.histogram("client.submit_latency");
    const double p50 = lat.percentile(0.5);
    const double p99 = lat.percentile(0.99);
    by_vms.add_row(
        {std::to_string(n_vms), std::to_string(ok) + "/" + std::to_string(n_vms),
         util::Table::num(lat.mean(), 3), util::Table::num(p50, 3),
         util::Table::num(p99, 3), std::to_string(system->running_vm_count())});
    note_row(ok, n_vms, p50);
    if (json_vms.tellp() > 0) json_vms << ",\n";
    json_vms << "    {\"vms\": " << n_vms << ", \"accepted\": " << ok
             << ", \"lat_mean_s\": " << bench::json_number(lat.mean())
             << ", \"lat_p50_s\": " << bench::json_number(p50)
             << ", \"lat_p99_s\": " << bench::json_number(p99)
             << ", \"running_vms\": " << system->running_vm_count() << "}";
  }
  by_vms.print();

  std::printf("\nshape check: p50 latency should stay flat as LCs and VMs grow "
              "(two-level dispatch), matching the paper's scalability claim.\n");
  const double p50_spread = p50_hi / p50_lo - 1.0;
  const bool shape_ok = all_accepted && p50_spread <= 0.01;
  std::printf("shape: p50 %.3f-%.3f s (spread %.2f %%, bound 1 %%), every submission "
              "accepted: %s -> %s\n",
              p50_lo, p50_hi, 100.0 * p50_spread, all_accepted ? "yes" : "no",
              shape_ok ? "holds" : "BROKEN");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"scalability\",\n  \"seed\": " << seed
        << ",\n  \"by_lcs\": [\n" << json_lcs.str() << "\n  ],\n  \"by_vms\": [\n"
        << json_vms.str() << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return shape_ok ? 0 : 1;
}
