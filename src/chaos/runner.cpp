#include "chaos/runner.hpp"

#include <cmath>
#include <memory>
#include <sstream>

#include "chaos/ground_truth.hpp"
#include "chaos/injector.hpp"
#include "core/system.hpp"
#include "obs/health_monitor.hpp"

namespace snooze::chaos {

ChaosRunResult run_chaos(const ChaosRunConfig& cfg) {
  return run_chaos_schedule(cfg,
                            generate_schedule(cfg.spec, cfg.topology, cfg.seed));
}

ChaosRunResult run_chaos_schedule(const ChaosRunConfig& cfg,
                                  const FaultSchedule& schedule) {
  core::SystemSpec spec;
  spec.entry_points = cfg.topology.entry_points;
  spec.group_managers = cfg.topology.group_managers;
  spec.local_controllers = cfg.topology.local_controllers;
  spec.config = cfg.config;
  spec.seed = cfg.seed;
  core::SnoozeSystem system(spec);
  system.trace().set_max_records(cfg.max_trace_records);
  if (cfg.incidents) {
    // Retain exemplars so the incident report can link the worst submit
    // bucket to its span tree. Passive: no events, no RNG, no trace records.
    system.telemetry()
        .metrics()
        .histogram("client.submit_latency")
        .enable_exemplars();
  }
  system.start();
  system.run_until_stable(cfg.stabilize_bound);

  InvariantChecker checker(system, cfg.invariants);
  checker.start();
  ChaosInjector injector(system, schedule, &checker);
  const sim::Time chaos_start = system.engine().now();
  injector.start();

  std::unique_ptr<obs::HealthMonitor> monitor;
  if (cfg.health_monitor) {
    monitor = std::make_unique<obs::HealthMonitor>(system);
    monitor->start();
  }

  std::unique_ptr<ops::Autoscaler> autoscaler;
  if (cfg.ops.autoscaler) {
    autoscaler = std::make_unique<ops::Autoscaler>(system, cfg.ops.autoscaler_config);
    autoscaler->start();
  }
  std::unique_ptr<ops::RollingUpgrade> upgrade;
  if (cfg.ops.upgrade_at >= 0.0) {
    upgrade = std::make_unique<ops::RollingUpgrade>(system, monitor.get(),
                                                    cfg.ops.upgrade_config);
    ops::RollingUpgrade* up = upgrade.get();
    system.engine().schedule(cfg.ops.upgrade_at, [up] { up->start(); });
  }

  // Stagger the workload across the fault window so submissions race the
  // injected failures. VMs run unbounded: each accepted one must survive to
  // the final check unless its host was deliberately crashed.
  for (std::size_t i = 0; i < cfg.vms; ++i) {
    system.engine().schedule(
        cfg.vm_inter_arrival * static_cast<double>(i + 1),
        [&system, &checker] {
      const core::VmDescriptor vm = system.make_vm({0.15, 0.15, 0.15});
      const core::VmId id = vm.id;
      system.client().submit(vm, [&checker, id](bool ok, net::Address, sim::Time) {
        if (ok) checker.note_accepted(id);
      });
    });
  }

  // Optional flash crowd: finite-lifetime VMs (they terminate on their own,
  // so they are not registered with the invariant checker — a legitimately
  // expired VM is not a lost one).
  if (cfg.burst_at >= 0.0) {
    for (std::size_t i = 0; i < cfg.burst_vms; ++i) {
      system.engine().schedule(
          cfg.burst_at + cfg.burst_inter_arrival * static_cast<double>(i),
          [&system, &cfg] {
            system.client().submit(
                system.make_vm({0.15, 0.15, 0.15}, cfg.burst_lifetime),
                [](bool, net::Address, sim::Time) {});
          });
    }
  }

  system.engine().run_until(chaos_start + schedule.duration + 1.0);
  injector.heal_all_remaining();

  ChaosRunResult result;
  result.converged = checker.final_check(cfg.converge_bound);
  result.invariants_ok = checker.ok();
  result.violations = checker.violations();
  result.faults_injected = injector.faults_injected();
  result.vms_accepted = checker.accepted_count();
  result.vms_excused = checker.excused_count();

  const net::TrafficStats& stats = system.network().stats();
  result.messages_sent = stats.messages_sent;
  result.messages_dropped = stats.messages_dropped;
  result.messages_duplicated = stats.messages_duplicated;
  for (const auto& gm : system.group_managers()) {
    result.stale_accepts += gm->stale_accepts();
  }
  for (const auto& lc : system.local_controllers()) {
    result.stale_accepts += lc->stale_accepts();
  }

  // Fingerprint: the full event trace plus the network counters. Identical
  // config + seed must reproduce this value bit for bit.
  std::uint64_t h = system.trace().hash();
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(stats.messages_sent);
  mix(stats.messages_delivered);
  mix(stats.messages_dropped);
  mix(stats.messages_duplicated);
  mix(stats.bytes_sent);
  result.trace_hash = h;
  // A GM's own fence restarts with the GM; the registry counter does not.
  const telemetry::MetricsRegistry& metrics = system.telemetry().metrics();
  result.fence_rejected = metrics.value("fence.rejected");
  result.rpc_hedges = metrics.value("rpc.hedges");
  result.rpc_hedges_won = metrics.value("rpc.hedges_won");
  result.stepdowns = metrics.value("gl.stepdowns");
  result.probations = metrics.value("gm.lc_probations");
  result.slow_flags = result.probations + metrics.value("gl.gm_slow_flagged");
  result.quarantines = metrics.value("gm.lc_quarantines");
  result.reinstatements = metrics.value("gm.lc_reinstatements");
  result.quarantine_flaps = metrics.value("gm.quarantine_flaps");
  if (cfg.capture_trace) result.trace_records = system.trace().records();

  if (monitor) {
    monitor->sample_now();  // final sample at run end
    result.slo_alerts_fired = monitor->alerts_fired();
    result.slo_alerts_cleared = monitor->alerts_cleared();
    result.failover_episodes = monitor->failover_episodes();
    const double mttr = monitor->failover_mttr();
    result.failover_mttr_s = std::isnan(mttr) ? -1.0 : mttr;
    if (cfg.capture_timeseries) result.timeseries_csv = monitor->store().csv();
  }
  if (autoscaler) {
    result.scale_ups = autoscaler->scale_ups();
    result.scale_downs = autoscaler->scale_downs();
  }
  if (upgrade) {
    result.upgrade_done = upgrade->state() == ops::UpgradeState::kDone;
    result.upgrade_rolled_back = upgrade->state() == ops::UpgradeState::kRolledBack;
    result.upgrade_waves_completed = upgrade->waves_completed();
    result.upgrade_nodes = upgrade->nodes_upgraded();
    result.upgrade_pauses = upgrade->pauses();
  }

  if (cfg.incidents) {
    obs::AddressNames names;
    for (const auto& gm : system.group_managers()) {
      names[gm->address()] = gm->name();
    }
    for (const auto& lc : system.local_controllers()) {
      names[lc->address()] = lc->name();
    }
    const double run_end = system.engine().now();
    result.incidents =
        obs::analyze_incidents(system.trace().records(),
                               &system.telemetry().spans(), run_end, names,
                               cfg.incident_config);
    const std::vector<InjectedFault>& faults = injector.faults();
    const AttributionScore score = score_attribution(result.incidents, faults);
    result.injected_faults_labeled = faults.size();
    result.attribution_tp = score.true_positives;
    result.attribution_fp = score.false_positives;
    result.attribution_recalled = score.faults_recalled;
    result.attribution_precision = score.precision();
    result.attribution_recall = score.recall();
    result.incident_table = result.incidents.table();
    result.incident_csv = result.incidents.csv();
  }

  std::ostringstream report;
  report << "chaos run: seed=" << cfg.seed << " faults=" << result.faults_injected
         << " accepted=" << result.vms_accepted << " excused=" << result.vms_excused
         << " converged=" << (result.converged ? "yes" : "no")
         << " fenced=" << result.fence_rejected
         << " stale_accepts=" << result.stale_accepts
         << " stepdowns=" << result.stepdowns
         << " alerts=" << result.slo_alerts_fired;
  if (result.slow_flags + result.probations + result.quarantines > 0) {
    report << " slow_flags=" << result.slow_flags
           << " probations=" << result.probations
           << " quarantines=" << result.quarantines
           << " reinstated=" << result.reinstatements
           << " flaps=" << result.quarantine_flaps;
  }
  if (autoscaler) {
    report << " scale_ups=" << result.scale_ups
           << " scale_downs=" << result.scale_downs;
  }
  if (upgrade) {
    report << " upgrade=" << (result.upgrade_done ? "done"
                              : result.upgrade_rolled_back ? "rolled_back"
                                                           : "incomplete")
           << " upgraded_nodes=" << result.upgrade_nodes;
  }
  report << "\n" << checker.report();
  result.report = report.str();
  return result;
}

}  // namespace snooze::chaos
