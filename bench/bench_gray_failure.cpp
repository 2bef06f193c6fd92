// Gray-failure resilience gate.
//
// Two phases, both gated so CI can fail the build:
//
//   1. Fail-slow sweep: N seeded random gray schedules (service stretch, CPU
//      steal, flaky links — nothing ever crashes) on the default chaos
//      cluster. Every seed must hold the safety invariants and reconverge,
//      the containment ladder must never flap a quarantined node, and a
//      slow-but-alive node must never trigger a spurious election.
//
//   2. Blind-vs-detection latency A/B: the same cluster with two fail-slow
//      LCs, once with gray detection disabled (the slow nodes stay in the
//      placement rotation, so submissions eat StartVm timeouts and retries)
//      and once with detection + hedged probes on (the slow nodes are flagged
//      and excluded before the workload lands). The detection run's submit
//      p99 must come in at or under --max-p99-ratio (default 0.5) of the
//      blind run's, containment must respect the quarantine capacity cap,
//      and leadership must not move.
//
// Usage:
//   bench_gray_failure [--quick] [--seeds=N] [--max-p99-ratio=R]
//                      [--json=BENCH_gray.json]
//
// --quick            10-seed sweep instead of 50 (CI smoke)
// --max-p99-ratio    gate: detection p99 <= R * blind p99 (0 disables)
// --json             write machine-readable results to this path

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/runner.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace snooze;

namespace {

struct SweepTotals {
  std::size_t ok = 0;
  std::uint64_t faults = 0;
  std::uint64_t slow_flags = 0;
  std::uint64_t probations = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t flaps = 0;
  std::uint64_t stepdowns = 0;
  std::uint64_t hedges_won = 0;
};

chaos::ChaosSpec gray_only_spec() {
  chaos::ChaosSpec spec;
  spec.weight_crash_gl = 0.0;
  spec.weight_crash_gm = 0.0;
  spec.weight_crash_lc = 0.0;
  spec.weight_crash_ep = 0.0;
  spec.weight_isolate = 0.0;
  spec.weight_link = 0.0;
  spec.weight_global_drop = 0.0;
  spec.weight_slow = 2.0;
  spec.weight_steal = 1.0;
  spec.weight_flaky = 1.0;
  return spec;
}

SweepTotals run_sweep(std::uint64_t seeds, bool* all_ok) {
  SweepTotals t;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    chaos::ChaosRunConfig cfg;
    cfg.seed = seed;
    cfg.spec = gray_only_spec();
    const auto result = chaos::run_chaos(cfg);
    if (result.ok()) {
      ++t.ok;
    } else {
      *all_ok = false;
      std::printf("sweep seed %llu failed:\n%s",
                  static_cast<unsigned long long>(seed), result.report.c_str());
    }
    t.faults += result.faults_injected;
    t.slow_flags += result.slow_flags;
    t.probations += result.probations;
    t.quarantines += result.quarantines;
    t.reinstatements += result.reinstatements;
    t.flaps += result.quarantine_flaps;
    t.stepdowns += result.stepdowns;
    t.hedges_won += result.rpc_hedges_won;
  }
  return t;
}

struct AbResult {
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::size_t suspended_lcs = 0;
  std::uint64_t stepdowns = 0;
  std::uint64_t probations = 0;
};

/// One side of the A/B: a 3-GM/12-LC cluster where two LCs turn fail-slow
/// (4x service stretch) before the measured workload arrives. With detection
/// on, the 40 s lead-in is enough probe traffic to put both on probation.
AbResult run_side(bool detection, std::uint64_t seed) {
  core::SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 3;
  spec.local_controllers = 12;
  spec.seed = seed;
  spec.config.gray_detection = detection;
  core::SnoozeSystem system(spec);
  system.start();
  if (!system.run_until_stable(60.0)) {
    std::fprintf(stderr, "hierarchy failed to stabilize\n");
    return {};
  }

  // Two assigned LCs go gray. Both sides stretch the same nodes: the only
  // difference between the runs is whether anyone notices.
  std::size_t slowed = 0;
  for (auto& lc : system.local_controllers()) {
    if (!lc->assigned()) continue;
    lc->set_service_stretch(4.0);
    if (++slowed == 2) break;
  }
  system.engine().run_until(system.engine().now() + 40.0);

  std::vector<core::VmDescriptor> vms;
  for (std::size_t i = 0; i < 40; ++i) {
    vms.push_back(system.make_vm({0.15, 0.15, 0.15}, 0.0));
  }
  util::Percentiles latencies;  // of the accepted submissions
  system.client().submit_all(std::move(vms), 2.0,
                             [&latencies](bool ok, net::Address, sim::Time latency) {
    if (ok) latencies.add(latency);
  });
  system.engine().run_until(system.engine().now() + 150.0);

  AbResult out;
  out.p50 = latencies.percentile(0.5);
  out.p99 = latencies.percentile(0.99);
  out.accepted = system.client().succeeded();
  out.rejected = system.client().failed();
  for (const auto& lc : system.local_controllers()) {
    if (lc->suspended()) ++out.suspended_lcs;
  }
  out.stepdowns = system.telemetry().metrics().value("gl.stepdowns");
  out.probations = system.telemetry().metrics().value("gm.lc_probations");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const auto seeds =
      static_cast<std::uint64_t>(args.get_int("seeds", quick ? 10 : 50));
  const double max_p99_ratio = args.get_double("max-p99-ratio", 0.5);
  const std::string json_path = args.get("json", "");

  bench::print_header(
      "Gray failures: fail-slow sweep + blind-vs-detection latency",
      "slow-but-alive nodes are contained without spurious failovers, and "
      "detection pays for itself in tail latency");

  bool ok = true;

  // --- phase 1: fail-slow sweep ---------------------------------------------
  const SweepTotals sweep = run_sweep(seeds, &ok);
  util::Table sweep_table({"seeds ok", "faults", "flags", "probations",
                           "quarantines", "reinstated", "flaps", "stepdowns"});
  sweep_table.add_row({std::to_string(sweep.ok) + "/" + std::to_string(seeds),
                       std::to_string(sweep.faults),
                       std::to_string(sweep.slow_flags),
                       std::to_string(sweep.probations),
                       std::to_string(sweep.quarantines),
                       std::to_string(sweep.reinstatements),
                       std::to_string(sweep.flaps),
                       std::to_string(sweep.stepdowns)});
  sweep_table.print();
  if (sweep.flaps != 0) {
    std::printf("GATE FAIL: %llu quarantine flap(s) across the sweep\n",
                static_cast<unsigned long long>(sweep.flaps));
    ok = false;
  }
  if (sweep.stepdowns != 0) {
    std::printf("GATE FAIL: %llu stepdown(s) — a slow-but-alive node moved "
                "leadership\n",
                static_cast<unsigned long long>(sweep.stepdowns));
    ok = false;
  }
  if (sweep.slow_flags == 0) {
    std::printf("GATE FAIL: detector never fired across the sweep\n");
    ok = false;
  }

  // --- phase 2: blind vs detection ------------------------------------------
  const std::uint64_t ab_seed = static_cast<std::uint64_t>(args.get_int("seed", 21));
  const AbResult blind = run_side(false, ab_seed);
  const AbResult aware = run_side(true, ab_seed);
  const double ratio = blind.p99 > 0.0 ? aware.p99 / blind.p99 : -1.0;

  util::Table ab({"mode", "submit p50 s", "submit p99 s", "accepted",
                  "probations", "quarantined LCs"});
  ab.add_row({"blind", util::Table::num(blind.p50, 2),
              util::Table::num(blind.p99, 2), std::to_string(blind.accepted),
              std::to_string(blind.probations),
              std::to_string(blind.suspended_lcs)});
  ab.add_row({"detection", util::Table::num(aware.p50, 2),
              util::Table::num(aware.p99, 2), std::to_string(aware.accepted),
              std::to_string(aware.probations),
              std::to_string(aware.suspended_lcs)});
  ab.print();
  std::printf("\np99 ratio detection/blind: %.2f (gate <= %.2f)\n", ratio,
              max_p99_ratio);

  // Detection must actually engage, beat the blind tail, keep every
  // submission accepted, respect the quarantine capacity cap, and leave
  // leadership alone.
  if (aware.probations == 0) {
    std::printf("GATE FAIL: detection run never flagged a slow LC\n");
    ok = false;
  }
  if (max_p99_ratio > 0.0 && (ratio < 0.0 || ratio > max_p99_ratio)) {
    std::printf("GATE FAIL: detection p99 %.2fs vs blind %.2fs (ratio %.2f > %.2f)\n",
                aware.p99, blind.p99, ratio, max_p99_ratio);
    ok = false;
  }
  // Capacity floor binds the *detection* run: containment may bench nodes but
  // must never cost an acceptance. The blind run's rejections are reported as
  // the price of not detecting (its retries exhaust against fail-slow nodes).
  if (aware.rejected != 0 || aware.accepted != 40) {
    std::printf("GATE FAIL: capacity floor — %llu/40 accepted, %llu rejected "
                "with detection on\n",
                static_cast<unsigned long long>(aware.accepted),
                static_cast<unsigned long long>(aware.rejected));
    ok = false;
  }
  for (const AbResult* side : {&blind, &aware}) {
    if (side->stepdowns != 0) {
      std::printf("GATE FAIL: slow-but-alive nodes moved leadership in the A/B\n");
      ok = false;
    }
  }
  // Cap: kMaxQuarantinedFraction (0.2) of a 4-LC group floors at 1, so at
  // most 1 quarantined LC per GM group — and the two slow nodes can land in
  // the same group, so 2 total is the ceiling.
  if (aware.suspended_lcs > 2) {
    std::printf("GATE FAIL: %zu LCs quarantined — capacity cap breached\n",
                aware.suspended_lcs);
    ok = false;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"seeds\": " << seeds << ",\n"
        << "  \"sweep_ok\": " << sweep.ok << ",\n"
        << "  \"slow_flags\": " << sweep.slow_flags << ",\n"
        << "  \"probations\": " << sweep.probations << ",\n"
        << "  \"quarantines\": " << sweep.quarantines << ",\n"
        << "  \"reinstatements\": " << sweep.reinstatements << ",\n"
        << "  \"quarantine_flaps\": " << sweep.flaps << ",\n"
        << "  \"stepdowns\": " << sweep.stepdowns << ",\n"
        << "  \"hedges_won\": " << sweep.hedges_won << ",\n"
        << "  \"blind_p99_s\": " << blind.p99 << ",\n"
        << "  \"blind_accepted\": " << blind.accepted << ",\n"
        << "  \"detection_p99_s\": " << aware.p99 << ",\n"
        << "  \"detection_accepted\": " << aware.accepted << ",\n"
        << "  \"p99_ratio\": " << ratio << ",\n"
        << "  \"ok\": " << (ok ? "true" : "false") << "\n"
        << "}\n";
    std::printf("json written to %s\n", json_path.c_str());
  }

  std::printf("\nshape check: every sweep seed converges with zero flaps and\n"
              "zero elections; in the A/B the blind run's p99 carries the\n"
              "StartVm timeout + retry cost of placing onto fail-slow nodes,\n"
              "while the detection run has already benched them.\n");
  return ok ? 0 : 1;
}
