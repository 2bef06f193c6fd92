// Experiment E4 — fault tolerance vs. application performance (paper §II.F).
//
// Paper claim: "the fault tolerance features of the framework do not impact
// application performance."
//
// A 60-LC deployment runs 120 VMs with a throughput proxy (useful
// VM-seconds per second). We crash the GL, then a GM, then an LC, and report
// the application throughput in windows around each failure plus the
// hierarchy recovery time. Expected shape: management-layer failures (GL,
// GM) leave throughput flat; only the LC crash dips it (its VMs die — or are
// rescheduled when snapshot recovery is on).
//
// --sweep switches to a chaos fault-density sweep: seeded random fault
// schedules at increasing fault rates on a 3-GM/9-LC cluster, reporting
// whether the safety invariants held and the hierarchy reconverged.

#include <cstdio>
#include <string_view>

#include "chaos/runner.hpp"
#include "core/snooze.hpp"
#include "bench_common.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

int run_density_sweep(const util::Args& args) {
  bench::print_header(
      "E4b: invariant robustness vs. chaos fault density",
      "safety invariants hold and the hierarchy reconverges at any density");

  const auto seeds = static_cast<std::uint64_t>(args.get_int("seeds", 5));
  const double duration = args.get_double("duration", 120.0);
  const double rates[] = {0.01, 0.02, 0.05, 0.10};

  util::Table table({"fault rate", "seeds ok", "faults", "accepted", "excused",
                     "dropped msgs", "violations"});
  bool all_ok = true;
  for (const double rate : rates) {
    std::size_t ok = 0, faults = 0, accepted = 0, excused = 0, violations = 0;
    std::uint64_t dropped = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      chaos::ChaosRunConfig cfg;
      cfg.seed = seed;
      cfg.spec.fault_rate = rate;
      cfg.spec.duration = duration;
      const auto result = chaos::run_chaos(cfg);
      if (result.ok()) ++ok;
      faults += result.faults_injected;
      accepted += result.vms_accepted;
      excused += result.vms_excused;
      violations += result.violations.size();
      dropped += result.messages_dropped;
      if (!result.ok()) {
        all_ok = false;
        std::printf("rate %.2f seed %llu:\n%s", rate,
                    static_cast<unsigned long long>(seed), result.report.c_str());
      }
    }
    table.add_row({util::Table::num(rate, 2),
                   std::to_string(ok) + "/" + std::to_string(seeds),
                   std::to_string(faults), std::to_string(accepted),
                   std::to_string(excused), std::to_string(dropped),
                   std::to_string(violations)});
  }
  table.print();
  std::printf("\nshape check: every seed at every density finishes with zero\n"
              "violations — more faults mean more excused VMs and dropped\n"
              "messages, never lost or duplicated VMs.\n");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.get_bool("sweep", false)) return run_density_sweep(args);
  const bool reschedule = args.get_bool("reschedule", false);

  bench::print_header(
      "E4: application performance under GL / GM / LC failures",
      "fault tolerance features do not impact application performance");

  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 4;
  spec.local_controllers = 60;
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  spec.config.reschedule_failed_vms = reschedule;
  SnoozeSystem system(spec);
  system.start();
  if (!system.run_until_stable(300.0)) {
    std::fprintf(stderr, "hierarchy failed to stabilize\n");
    return 1;
  }

  const std::size_t n_vms = 120;
  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < n_vms; ++i) {
    TraceSpec trace;
    trace.kind = TraceSpec::Kind::kConstant;
    trace.a = 0.7;
    vms.push_back(system.make_vm({0.125, 0.125, 0.125}, 0.0, trace));
  }
  system.client().submit_all(vms, 0.1);
  system.engine().run_until(system.engine().now() + 60.0);
  auto& metrics = system.telemetry().metrics();
  std::printf("running VMs after submission: %zu/%zu (%llu placements ok)\n",
              system.running_vm_count(), n_vms,
              static_cast<unsigned long long>(
                  metrics.counter("gm.placements_ok").value()));

  // Throughput sampler: d(total useful work)/dt over fixed windows.
  double last_work = system.total_work();
  double last_t = system.engine().now();
  auto throughput_over = [&](double window) {
    system.engine().run_until(system.engine().now() + window);
    const double work = system.total_work();
    const double t = system.engine().now();
    const double rate = (work - last_work) / (t - last_t);
    last_work = work;
    last_t = t;
    return rate;
  };

  util::Table table({"phase", "throughput VM/s", "running VMs", "note"});
  const double baseline = throughput_over(60.0);
  table.add_row({"baseline", util::Table::num(baseline, 2),
                 std::to_string(system.running_vm_count()), ""});

  // --- GL failure ------------------------------------------------------------
  const double gl_fail_time = system.engine().now();
  system.fail_gl();
  const double during_gl = throughput_over(60.0);
  const bool recovered_gl = system.run_until_stable(system.engine().now() + 120.0);
  // Actual failover latency: time from the crash to the successor's election
  // (recorded in the simulation trace).
  const double election = system.trace().first_time("gm.elected_gl", gl_fail_time);
  const double gl_recovery = election >= 0.0 ? election - gl_fail_time : -1.0;
  table.add_row({"GL crash", util::Table::num(during_gl, 2),
                 std::to_string(system.running_vm_count()),
                 recovered_gl && gl_recovery >= 0.0
                     ? "new GL elected in " + util::Table::num(gl_recovery, 1) + "s"
                     : "no recovery"});
  last_work = system.total_work();
  last_t = system.engine().now();

  // --- GM failure ------------------------------------------------------------
  const double gm_fail_time = system.engine().now();
  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    auto& gm = system.group_managers()[i];
    if (gm->alive() && !gm->is_leader() && gm->lc_count() > 0) {
      system.fail_gm(i);
      break;
    }
  }
  const double during_gm = throughput_over(60.0);
  const bool recovered_gm = system.run_until_stable(system.engine().now() + 120.0);
  // Rejoin latency: first LC rejoin event after the crash.
  const double rejoin = system.trace().first_time("lc.joined", gm_fail_time);
  table.add_row({"GM crash", util::Table::num(during_gm, 2),
                 std::to_string(system.running_vm_count()),
                 recovered_gm && rejoin >= 0.0
                     ? "LCs rejoining after " +
                           util::Table::num(rejoin - gm_fail_time, 1) + "s"
                     : "no recovery"});
  last_work = system.total_work();
  last_t = system.engine().now();

  // --- LC failure -------------------------------------------------------------
  std::size_t victim = 0;
  for (std::size_t i = 0; i < system.local_controllers().size(); ++i) {
    if (system.local_controllers()[i]->alive() &&
        system.local_controllers()[i]->vm_count() > 0) {
      victim = i;
      break;
    }
  }
  const std::size_t lost = system.local_controllers()[victim]->vm_count();
  system.fail_lc(victim);
  const double during_lc = throughput_over(60.0);
  // The note counts what the GM actually rescheduled, not what was asked: a
  // GM that adopted the victim's VMs from monitoring reports holds no
  // descriptors to reschedule them from.
  const auto rescheduled = metrics.counter("gm.vms_rescheduled").value();
  table.add_row({"LC crash", util::Table::num(during_lc, 2),
                 std::to_string(system.running_vm_count()),
                 std::to_string(lost) + " VMs on the node" +
                     (rescheduled > 0 ? " (" + std::to_string(rescheduled) + " rescheduled)"
                                      : " (lost, per paper)")});

  const double after = throughput_over(60.0);
  table.add_row({"steady state", util::Table::num(after, 2),
                 std::to_string(system.running_vm_count()), ""});
  table.print();

  // Recovery machinery, straight from the always-on metrics registry.
  const auto reg = [&metrics](std::string_view name) {
    return static_cast<unsigned long long>(metrics.counter(name).value());
  };
  std::printf("\nrecovery activity: %llu elections won, %llu LC failures detected,\n"
              "%llu VMs rescheduled, %llu RPC timeouts, %llu messages dropped\n",
              reg("gm.elections_won"), reg("gm.lc_failures_detected"),
              reg("gm.vms_rescheduled"), reg("rpc.timeouts"),
              reg("net.messages_dropped"));

  std::printf("\nshape check: GL/GM rows stay at the baseline (management-layer\n"
              "failures never touch running VMs); only the LC row moves, by the\n"
              "%zu VMs that lived on the crashed node. --reschedule turns on the\n"
              "snapshot-recovery feature; the LC row's note counts what it restored.\n",
              lost);
  return 0;
}
