// Deployment configuration: heartbeat periods, failure-detection windows,
// scheduling thresholds and energy-management knobs. One struct so a whole
// simulated deployment is reproducible from a single value.
#pragma once

#include <cstddef>

#include "core/estimator.hpp"
#include "sim/engine.hpp"

namespace snooze::core {

/// Which policy a Group Leader uses to pick candidate GMs for a VM.
enum class DispatchPolicyKind { kRoundRobin, kLeastLoaded };

/// Which policy a Group Manager uses to place a VM on an LC.
enum class PlacementPolicyKind { kFirstFit, kRoundRobin, kBestFit };

/// Which algorithm periodic reconfiguration runs.
enum class ConsolidationKind { kNone, kFfd, kBfd, kAco };

/// Declarative service-level objectives evaluated by obs::SloEvaluator
/// against the live TimeSeriesStore. Thresholds are maxima ("the SLI must
/// stay below"); a NaN SLI (no data yet) never counts as a breach. Alerts
/// use burn/clear hysteresis: fire after `burn_samples` consecutive
/// breaching samples, clear after `clear_samples` consecutive samples below
/// `clear_fraction * threshold`.
struct SloConfig {
  sim::Time sample_period = 1.0;  ///< health-monitor cadence (DES clock)

  double submit_p50_max_s = 5.0;   ///< submit→running latency median
  double submit_p99_max_s = 10.0;  ///< submit→running latency tail
  /// Failover MTTR: gm.fail of the acting GL → gl.reconciled. Default is the
  /// heartbeat-derived bound from E13: session timeout (6 s) + one heartbeat
  /// period (1 s) + gl_reconcile_window (2.5 s).
  double failover_mttr_max_s = 9.5;
  double energy_per_vm_hour_max_j = 2.0e6;  ///< cluster joules per VM-hour
  /// Minimum accumulated VM-hours before the energy SLI is defined — the
  /// ratio is dominated by idle baseline power until real work accumulates
  /// (a cold cluster burns joules before any VM-hour exists), so the SLI
  /// warms up rather than alerting on start-up transients.
  double energy_min_vm_hours = 0.05;
  double fence_rejected_per_min_max = 30.0;  ///< stale-command rejection rate
  double heartbeat_staleness_max_s = 3.0;    ///< worst LC heartbeat age seen by GMs

  /// Summary-stream health. The delta stream's steady state is one
  /// near-empty header (~100 bytes) per sending GM per period *regardless of
  /// fleet shape*, while re-snapshotting adds ~16 bytes per hosted VM — so
  /// bytes per sending GM per period separates a converged stream from a
  /// stuck one at any topology (per-LC normalization does not: a healthy
  /// 4-LC cluster reads higher per LC than a re-snapshotting 200-LC one).
  double summary_bytes_per_gm_period_max = 256.0;
  /// Age of the stalest GM summary at the acting GL. The GL ages a GM out
  /// after gm_summary_period * heartbeat_timeout_factor (7 s at defaults);
  /// alerting below that surfaces a degraded stream before the eviction.
  double summary_staleness_max_s = 6.0;

  int burn_samples = 3;    ///< consecutive breaches before an alert fires
  int clear_samples = 5;   ///< consecutive good samples before it clears
  double clear_fraction = 0.8;  ///< "good" = SLI < clear_fraction * threshold

  /// Trailing window of the alert-flap SLI (fire/clear transitions per
  /// window across all SLIs). A healthy long-horizon run alerts rarely; a
  /// flapping one oscillates — the soak gate reads this as a first-class SLI.
  sim::Time flap_window_s = 3600.0;
};

/// Gray-failure (fail-slow) detection and containment knobs.
///
/// Detection is *peer-relative*: the GM keeps per-LC operation-latency EWMAs
/// (probe round-trip, StartVm ack, migration slowdown) and scores each LC
/// against the robust fleet baseline (median / MAD across peers). A node
/// whose score stays above `z_flag` for `slow_flag_sustain_s` enters
/// probation (excluded from placement, monitoring trust halved); sustained
/// degradation escalates to quarantine (evacuate + suspend), and a clean
/// probe window reinstates it. The GL applies the same scoring to its GMs
/// (probe round-trip + summary turnaround) and stops dispatching to flagged
/// GMs — without ever declaring them dead, so a slow-but-alive leader path
/// never triggers a spurious failover.
struct GrayConfig {
  bool detection = true;        ///< master switch for scoring + containment
  sim::Time probe_period = 5.0; ///< GM->LC and GL->GM latency probe cadence
  sim::Time probe_timeout = 1.0;
  /// Service time of a probe on a healthy node; a gray node answers after
  /// this times its effective slowdown, which is what the scorer sees.
  sim::Time probe_service_time = 0.005;
  double ewma_alpha = 0.3;      ///< per-peer latency EWMA smoothing
  double z_flag = 4.0;          ///< robust z-score that marks a peer slow
  double z_clear = 2.0;         ///< hysteretic clear threshold (z_clear < z_flag)
  sim::Time slow_flag_sustain_s = 10.0;  ///< score must stay high this long
  /// Probation -> quarantine escalation: still flagged after this long on
  /// probation, the node is evacuated and suspended.
  sim::Time quarantine_after_s = 20.0;
  /// Capacity guard: never hold more than this fraction of a group's LCs in
  /// quarantine at once (escalation is deferred, probation remains).
  double max_quarantined_fraction = 0.2;
  sim::Time reinstate_after_s = 30.0;   ///< quarantine dwell before re-probing
  int reinstate_clean_probes = 3;       ///< consecutive clean evals to reinstate
};

struct SnoozeConfig {
  // --- heartbeat / failure detection --------------------------------------
  sim::Time gl_heartbeat_period = 1.0;
  sim::Time gm_heartbeat_period = 1.0;
  sim::Time lc_heartbeat_period = 1.0;
  /// A peer is declared failed after `timeout_factor * period` of silence.
  double heartbeat_timeout_factor = 3.5;

  /// Reconciliation window of a freshly promoted GL: client work (VM
  /// submissions, LC assignments) is deferred until the new leader has
  /// rebuilt its soft state from GM summaries and re-registrations. Must
  /// cover at least one gm_summary_period so every live GM reports once.
  sim::Time gl_reconcile_window = 2.5;

  // --- monitoring / estimation ---------------------------------------------
  sim::Time lc_monitor_period = 2.0;     ///< LC -> GM resource monitoring
  sim::Time gm_summary_period = 2.0;     ///< GM -> GL aggregated summary
  std::size_t estimator_window = 5;      ///< sliding window length (samples)
  /// Window-max is conservative (never under-estimates recent demand);
  /// EWMA is smoother and tracks trends (see core/estimator.hpp).
  EstimatorKind estimator_kind = EstimatorKind::kWindowMax;
  double estimator_ewma_alpha = 0.3;

  // --- scheduling -----------------------------------------------------------
  DispatchPolicyKind dispatch_policy = DispatchPolicyKind::kRoundRobin;
  PlacementPolicyKind placement_policy = PlacementPolicyKind::kFirstFit;
  double overload_threshold = 0.90;   ///< LC bottleneck utilization
  double underload_threshold = 0.20;
  sim::Time anomaly_check_period = 5.0;  ///< LC-local overload/underload scan
  sim::Time rpc_timeout = 1.0;
  sim::Time placement_rpc_timeout = 20.0;  ///< must cover a wakeup (resume latency)
  /// Client-side timeout for one submit attempt against the GL. Deliberately
  /// much tighter than the GL's own worst-case dispatch: when it trips, the
  /// client re-discovers and re-submits, and the GL's idempotent submission
  /// book (keyed by VM id) turns the re-send into a replay, never a second
  /// instance. Bounds client-visible failover latency to roughly one round.
  sim::Time submit_rpc_timeout = 10.0;
  std::size_t max_dispatch_candidates = 4; ///< GL linear-search width

  // --- reconfiguration (periodic consolidation) ----------------------------
  ConsolidationKind consolidation = ConsolidationKind::kNone;
  sim::Time reconfiguration_period = 0.0;  ///< 0 disables the timer
  std::size_t aco_ants = 6;
  std::size_t aco_cycles = 6;
  /// Cap on live migrations issued per reconfiguration round (0 = no cap).
  /// Bounds the disruption of a single round; the next round continues the
  /// packing. LCs reject migrations they cannot absorb, so a truncated plan
  /// degrades gracefully.
  std::size_t max_migrations_per_reconfiguration = 0;

  // --- energy management ----------------------------------------------------
  bool energy_savings = false;
  sim::Time idle_threshold = 30.0;  ///< idle time before suspending an LC
  sim::Time energy_check_period = 5.0;

  // --- VM lifecycle ----------------------------------------------------------
  sim::Time vm_boot_time = 2.0;
  double migration_bandwidth_mbps = 1000.0;

  /// Reschedule VMs of a failed LC from their last descriptor (the paper's
  /// optional snapshot-based recovery, §II.E).
  bool reschedule_failed_vms = false;

  // --- long-horizon memory bounds -------------------------------------------
  /// GL submission-book entries not re-acknowledged by a GM summary within
  /// this window are pruned (their VM terminated and the client's retry
  /// horizon — seconds — is long past). 0 keeps the book forever.
  sim::Time submission_book_retention = 600.0;

  // --- gray-failure resilience ----------------------------------------------
  GrayConfig gray;

  // --- observability ---------------------------------------------------------
  SloConfig slo;
};

}  // namespace snooze::core
