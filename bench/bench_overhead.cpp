// Experiment E6 — distributed-management overhead (paper §II.F).
//
// Paper claim: "negligible cost is involved in performing distributed VM
// management". We measure the steady-state control traffic (heartbeats,
// monitoring, summaries) of idle and loaded deployments across cluster
// sizes: total messages/s, bytes/s, and the per-LC share — which must stay
// flat as the fleet grows (each LC talks only to its GM; each GM only to the
// GL).
//
// The exit status is that shape: 0 iff every fleet size stabilized and the
// per-LC messages per second lie within 15 % of the lowest.
// Artifact: --json=<path> writes every row's deterministic numbers.

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

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double window = args.get_double("window", 300.0);
  const std::string json_path = args.get("json", "");

  bench::print_header("E6: control-plane overhead vs cluster size",
                      "negligible cost of distributed VM management; per-node "
                      "traffic stays constant");

  util::Table table({"LCs", "GMs", "VMs", "msgs/s", "KB/s", "msgs/s per LC",
                     "B/s per LC"});
  bool all_stable = true;
  double per_lc_lo = std::numeric_limits<double>::infinity();
  double per_lc_hi = 0.0;
  std::ostringstream json_rows;  // one JSON row per table row
  for (std::size_t lcs : {18, 36, 72, 144}) {
    const std::size_t gms = 2 + lcs / 36;
    SystemSpec spec;
    spec.entry_points = 2;
    spec.group_managers = gms;
    spec.local_controllers = lcs;
    spec.seed = seed;
    SnoozeSystem system(spec);
    system.start();
    if (!system.run_until_stable(300.0)) {
      std::fprintf(stderr, "%zu LCs failed to stabilize\n", lcs);
      all_stable = false;
      continue;
    }
    // Load half the fleet with VMs so monitoring reports carry VM entries.
    std::vector<VmDescriptor> vms;
    for (std::size_t i = 0; i < lcs / 2; ++i) {
      TraceSpec trace;
      trace.kind = TraceSpec::Kind::kConstant;
      trace.a = 0.5;
      vms.push_back(system.make_vm({0.25, 0.25, 0.25}, 0.0, trace));
    }
    system.client().submit_all(vms, 0.1);
    system.engine().run_until(system.engine().now() + 60.0);

    // Counters in the metrics registry are monotonic: sample before/after the
    // measurement window instead of resetting shared state.
    auto& metrics = system.telemetry().metrics();
    const std::uint64_t msgs0 = metrics.counter("net.messages_sent").value();
    const std::uint64_t bytes0 = metrics.counter("net.bytes_sent").value();
    const double t0 = system.engine().now();
    system.engine().run_until(t0 + window);
    const auto msgs = metrics.counter("net.messages_sent").value() - msgs0;
    const auto bytes = metrics.counter("net.bytes_sent").value() - bytes0;
    const double msgs_s = static_cast<double>(msgs) / window;
    const double bytes_s = static_cast<double>(bytes) / window;
    const double msgs_per_lc = msgs_s / static_cast<double>(lcs);
    const double bytes_per_lc = bytes_s / static_cast<double>(lcs);
    table.add_row({std::to_string(lcs), std::to_string(gms),
                   std::to_string(system.running_vm_count()),
                   util::Table::num(msgs_s, 1), util::Table::num(bytes_s / 1024.0, 2),
                   util::Table::num(msgs_per_lc, 2), util::Table::num(bytes_per_lc, 1)});
    per_lc_lo = std::min(per_lc_lo, msgs_per_lc);
    per_lc_hi = std::max(per_lc_hi, msgs_per_lc);
    if (json_rows.tellp() > 0) json_rows << ",\n";
    json_rows << "    {\"lcs\": " << lcs << ", \"gms\": " << gms
              << ", \"running_vms\": " << system.running_vm_count()
              << ", \"msgs_s\": " << bench::json_number(msgs_s)
              << ", \"bytes_s\": " << bench::json_number(bytes_s)
              << ", \"msgs_s_per_lc\": " << bench::json_number(msgs_per_lc)
              << ", \"bytes_s_per_lc\": " << bench::json_number(bytes_per_lc) << "}";
  }
  table.print();

  std::printf("\nshape check: total traffic grows linearly with the fleet while\n"
              "the per-LC columns stay ~constant — the hierarchy localizes all\n"
              "monitoring, so management cost per node is flat (the paper's\n"
              "'negligible cost / highly scalable' claim).\n");
  const double spread = per_lc_hi / per_lc_lo - 1.0;
  const bool shape_ok = all_stable && spread <= 0.15;
  std::printf("shape: msgs/s per LC %.2f-%.2f (spread %.1f %%, bound 15 %%) -> %s\n",
              per_lc_lo, per_lc_hi, 100.0 * spread, shape_ok ? "holds" : "BROKEN");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"overhead\",\n  \"seed\": " << seed
        << ",\n  \"window_s\": " << bench::json_number(window) << ",\n  \"rows\": [\n"
        << json_rows.str() << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return shape_ok ? 0 : 1;
}
