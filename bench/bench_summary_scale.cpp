// Summary-protocol scaling benchmark: the batched delta stream vs full
// per-period summaries on a 3 GM / 200 LC deployment.
//
// A full summary re-lists every VM location each kGmSummaryPeriod, so the
// GM -> GL byte rate grows with the VM population even when nothing changes.
// The delta stream's steady state is a near-empty acknowledged header per GM
// per period — O(churn), not O(VMs). The acceptance bar for the protocol:
// steady-state summary bytes per LC-period at least 5x below full summaries.
//
// Only the delta stream runs; the full-summary baseline is the retired full
// summary's wire size from every reporting GM in every period of the window.
//
//   bench_summary_scale [--quick] [--json=BENCH_scale.json] [--min-ratio=R]
//                       [--max-delta-bytes=B]
//
// --quick            shorter measurement window for CI smoke
// --json             write machine-readable results to this path
// --min-ratio        exit non-zero if full/delta bytes-per-LC-period < R
//                    (CI regression gate for the 5x acceptance bar)
// --max-delta-bytes  exit non-zero if the delta stream's steady-state bytes
//                    per LC-period exceed this ceiling (catches a stream
//                    stuck re-snapshotting instead of converging to deltas)
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

/// Wire size of a full summary: a header plus one (VM, LC) pair per VM.
constexpr double kFullSummaryHeaderBytes = 72.0;
constexpr double kFullSummaryBytesPerVm = 16.0;

struct Measurement {
  double bytes_per_lc_period = 0.0;
  double full_bytes_per_lc_period = 0.0;
  std::uint64_t snapshots = 0;
  std::uint64_t deltas = 0;
  std::uint64_t nacks = 0;
  std::size_t vms_running = 0;
  bool ok = false;
};

Measurement measure(std::uint64_t seed, double window) {
  SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 3;
  spec.local_controllers = 200;
  spec.seed = seed;
  SnoozeSystem system(spec);
  system.start();
  Measurement m;
  if (!system.run_until_stable(300.0)) {
    std::fprintf(stderr, "FATAL: deployment failed to stabilize\n");
    return m;
  }

  // Populate half the fleet with long-lived VMs so full summaries would carry
  // a realistic location list, then let placements settle: the measurement
  // window is churn-free steady state — the delta stream's best case and the
  // full stream's unchanged cost.
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < 100; ++i) {
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.5;
    vms.push_back(system.make_vm({0.2, 0.2, 0.2}, 0.0, trace));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 60.0);

  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  const std::uint64_t bytes0 = metrics.value("gm.summary_bytes");
  const double t0 = system.engine().now();
  const double period = kGmSummaryPeriod;
  const double periods = window / period;
  double full_bytes = 0.0;
  for (double k = 1.0; k <= periods; k += 1.0) {
    system.engine().run_until(t0 + k * period);
    for (const auto& gm : system.group_managers()) {
      if (!gm->alive() || gm->is_leader()) continue;
      full_bytes += kFullSummaryHeaderBytes +
                    kFullSummaryBytesPerVm * static_cast<double>(gm->vm_count());
    }
  }

  const std::uint64_t bytes = metrics.value("gm.summary_bytes") - bytes0;
  m.snapshots = metrics.value("gm.summary_snapshots");
  m.deltas = metrics.value("gm.summary_deltas");
  m.nacks = metrics.value("gm.summary_nacks");
  const double lc_periods = periods * static_cast<double>(spec.local_controllers);
  m.bytes_per_lc_period = static_cast<double>(bytes) / lc_periods;
  m.full_bytes_per_lc_period = full_bytes / lc_periods;
  m.vms_running = system.running_vm_count();
  m.ok = true;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const double min_ratio = args.get_double("min-ratio", 0.0);
  const double max_delta_bytes = args.get_double("max-delta-bytes", 0.0);
  const std::string json_path = args.get("json", "");
  const double window = quick ? 120.0 : 600.0;

  bench::print_header(
      "summary-protocol scaling: batched deltas vs full summaries",
      "GL ingest must be O(GMs + churn), not O(total VMs), on the way to "
      "100k LCs");
  std::printf("3 GMs / 200 LCs / 100 VMs, %.0f virtual seconds steady state\n\n",
              window);

  const Measurement delta = measure(seed, window);
  if (!delta.ok) return 2;

  util::Table table({"protocol", "B per LC-period", "snapshots", "deltas", "nacks"});
  table.add_row({"full (wire size)", util::Table::num(delta.full_bytes_per_lc_period, 2),
                 "-", "-", "-"});
  table.add_row({"delta", util::Table::num(delta.bytes_per_lc_period, 2),
                 std::to_string(delta.snapshots), std::to_string(delta.deltas),
                 std::to_string(delta.nacks)});
  table.print();

  const double ratio = delta.bytes_per_lc_period > 0.0
                           ? delta.full_bytes_per_lc_period / delta.bytes_per_lc_period
                           : 0.0;
  std::printf("\nsteady-state bytes per LC-period: %.2f -> %.2f (%.1fx reduction)\n",
              delta.full_bytes_per_lc_period, delta.bytes_per_lc_period, ratio);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"summary_scale\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"window_virtual_s\": " << window << ",\n"
        << "  \"gms\": 3,\n  \"lcs\": 200,\n"
        << "  \"vms_running\": " << delta.vms_running << ",\n"
        << "  \"full_bytes_per_lc_period\": " << delta.full_bytes_per_lc_period << ",\n"
        << "  \"delta_bytes_per_lc_period\": " << delta.bytes_per_lc_period << ",\n"
        << "  \"delta_snapshots\": " << delta.snapshots << ",\n"
        << "  \"delta_deltas\": " << delta.deltas << ",\n"
        << "  \"delta_nacks\": " << delta.nacks << ",\n"
        << "  \"reduction_ratio\": " << ratio << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (min_ratio > 0.0 && ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: %.1fx bytes-per-LC-period reduction is below the %.1fx "
                 "floor\n",
                 ratio, min_ratio);
    return 1;
  }
  if (max_delta_bytes > 0.0 && delta.bytes_per_lc_period > max_delta_bytes) {
    std::fprintf(stderr,
                 "FAIL: delta stream spends %.2f bytes per LC-period, above the "
                 "%.2f ceiling — the stream is not converging to empty deltas\n",
                 delta.bytes_per_lc_period, max_delta_bytes);
    return 1;
  }
  return 0;
}
