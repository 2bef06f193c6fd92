// End-to-end chaos run: build a cluster, submit a workload, execute a fault
// schedule with invariants continuously checked, heal, and verify liveness.
//
// The whole run is a pure function of its configuration (seed included):
// two runs with identical inputs produce identical event traces, exposed as
// a fingerprint hash for reproducibility checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "core/config.hpp"
#include "obs/incident.hpp"
#include "ops/autoscaler.hpp"
#include "ops/upgrade.hpp"
#include "sim/trace.hpp"

namespace snooze::chaos {

struct ChaosRunConfig {
  Topology topology{};
  std::uint64_t seed = 1;
  ChaosSpec spec{};
  core::SnoozeConfig config{};

  std::size_t vms = 12;                 ///< workload size
  sim::Time vm_inter_arrival = 1.5;     ///< submission spacing
  sim::Time stabilize_bound = 30.0;  ///< initial hierarchy formation bound
  /// Post-heal reconvergence bound. A node recovered right at the horizon
  /// still needs a full boot (90 s with the default power model) before it
  /// can even start rejoining, so the bound must cover boot + election +
  /// assignment.
  sim::Time converge_bound = 150.0;
  InvariantChecker::Options invariants{};
  /// Copy the full event trace into ChaosRunResult::trace_records (the
  /// golden-trace suite diffs individual records, not just the hash).
  bool capture_trace = false;
  /// Run a HealthMonitor alongside the chaos schedule: cluster state is
  /// sampled every SloConfig::sample_period and SLO alert transitions are
  /// recorded in the sim trace (so goldens pin them). The monitor is
  /// read-only; runs without alert transitions keep their trace hash.
  bool health_monitor = true;
  /// Copy the monitor's time-series CSV into ChaosRunResult::timeseries_csv.
  bool capture_timeseries = false;
  /// Run the incident engine offline once the run is over: segment the
  /// trace into episodes, rank root-cause hypotheses, and score them against
  /// the injected schedule's ground-truth labels. Strictly passive — the
  /// engine only reads records after the last event, so enabling it cannot
  /// change the trace hash (exemplars are additionally retained on the
  /// submit-latency histogram to link reports to span trees).
  bool incidents = false;
  obs::IncidentConfig incident_config{};
  /// sim::Trace ring cap (see Trace::set_max_records). Chaos runs default to
  /// ring mode so long-horizon schedules hold memory flat; the cap is far
  /// above what any short scenario records, so goldens never trim and their
  /// hashes are unchanged. 0 = unbounded.
  std::size_t max_trace_records = 65536;

  // --- long-horizon operations (all off by default — adding an actor would
  // perturb event order and every golden hash) ------------------------------
  struct OpsOptions {
    bool autoscaler = false;
    ops::AutoscalerConfig autoscaler_config{};
    /// Start a rolling upgrade this long after the chaos window opens
    /// (< 0: no upgrade). The upgrade gates on the run's HealthMonitor.
    sim::Time upgrade_at = -1.0;
    ops::UpgradeConfig upgrade_config{};
  };
  OpsOptions ops{};

  /// Optional flash-crowd burst: `burst_vms` submissions starting this long
  /// after the chaos window opens (< 0: none), with a finite lifetime so the
  /// demand recedes again — one full autoscale cycle (wake on the spike,
  /// suspend on the trough) fits in a single scenario.
  sim::Time burst_at = -1.0;
  std::size_t burst_vms = 0;
  sim::Time burst_inter_arrival = 0.25;
  sim::Time burst_lifetime = 60.0;
};

struct ChaosRunResult {
  bool converged = false;      ///< hierarchy re-stabilized after healing
  bool invariants_ok = false;  ///< no invariant violation at any point
  std::vector<std::string> violations;
  std::uint64_t trace_hash = 0;  ///< deterministic run fingerprint
  std::vector<sim::TraceRecord> trace_records;  ///< filled when capture_trace
  std::size_t faults_injected = 0;
  std::size_t vms_accepted = 0;
  std::size_t vms_excused = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  /// Stale commands rejected by epoch fences (GMs + LCs) across the run.
  std::uint64_t fence_rejected = 0;
  /// Fence tripwires: stale commands that reached an apply path (must be 0).
  std::uint64_t stale_accepts = 0;
  /// Leadership terms abandoned after a stale-epoch signal or session expiry.
  std::uint64_t stepdowns = 0;
  // --- gray-failure detection / containment (GM and GL roles) -------------
  std::uint64_t slow_flags = 0;        ///< LC probations + GMs flagged slow
  std::uint64_t probations = 0;        ///< LCs placed on probation
  std::uint64_t quarantines = 0;       ///< probation -> quarantine escalations
  std::uint64_t reinstatements = 0;    ///< quarantined LCs returned to service
  std::uint64_t quarantine_flaps = 0;  ///< same LC quarantined more than once
  std::uint64_t rpc_hedges = 0;        ///< backup attempts launched
  std::uint64_t rpc_hedges_won = 0;    ///< backups that beat the primary
  // --- observability (filled when cfg.health_monitor) ----------------------
  std::uint64_t slo_alerts_fired = 0;
  std::uint64_t slo_alerts_cleared = 0;
  std::uint64_t failover_episodes = 0;
  double failover_mttr_s = -1.0;   ///< < 0: no completed failover episode
  std::string timeseries_csv;      ///< filled when cfg.capture_timeseries
  // --- incident attribution (filled when cfg.incidents) --------------------
  obs::IncidentReport incidents;     ///< episodes + ranked hypotheses
  std::string incident_table;        ///< rendered report (deterministic)
  std::string incident_csv;
  std::size_t injected_faults_labeled = 0;  ///< fault windows the injector recorded
  std::size_t attribution_tp = 0;    ///< matched node-blaming hypotheses
  std::size_t attribution_fp = 0;    ///< hypotheses matching no fault
  std::size_t attribution_recalled = 0;  ///< faults matched by >= 1 hypothesis
  double attribution_precision = 1.0;
  double attribution_recall = 1.0;
  // --- long-horizon operations (filled when cfg.ops enables them) ----------
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  bool upgrade_done = false;
  bool upgrade_rolled_back = false;
  std::uint64_t upgrade_waves_completed = 0;
  std::uint64_t upgrade_nodes = 0;
  std::uint64_t upgrade_pauses = 0;
  std::string report;

  [[nodiscard]] bool ok() const { return converged && invariants_ok; }
};

/// Generate a schedule from cfg.seed and run it.
[[nodiscard]] ChaosRunResult run_chaos(const ChaosRunConfig& cfg);

/// Run an explicit schedule (e.g. parsed from a script) on a fresh cluster.
[[nodiscard]] ChaosRunResult run_chaos_schedule(const ChaosRunConfig& cfg,
                                                const FaultSchedule& schedule);

}  // namespace snooze::chaos
