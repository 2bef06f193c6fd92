// Deployment configuration: scheduling thresholds, consolidation and
// energy-management knobs, and the protocol constants every deployment
// shares. One struct so a whole simulated deployment is reproducible from a
// single value.
#pragma once

#include <cstddef>

#include "sim/engine.hpp"

namespace snooze::core {

/// Which policy a Group Leader uses to pick candidate GMs for a VM.
enum class DispatchPolicyKind { kRoundRobin, kLeastLoaded };

/// Which policy a Group Manager uses to place a VM on an LC.
enum class PlacementPolicyKind { kFirstFit, kRoundRobin, kBestFit };

/// Which algorithm periodic reconfiguration runs.
enum class ConsolidationKind { kNone, kFfd, kAco };

// --- protocol constants (paper §II) -----------------------------------------
// Every deployment runs on these periods; DESIGN.md and E13 derive the
// failover bound from them. Each is read by more than one module; a value
// only one module reads lives in that module's .cpp.

/// GL, GM and LC heartbeat period.
inline constexpr sim::Time kHeartbeatPeriod = 1.0;
/// A peer is declared failed after `kHeartbeatTimeoutFactor * period` of
/// silence.
inline constexpr double kHeartbeatTimeoutFactor = 3.5;
/// GM -> GL aggregated summary period.
inline constexpr sim::Time kGmSummaryPeriod = 2.0;
/// Reconciliation window of a freshly promoted GL: client work (VM
/// submissions, LC assignments) is deferred until the new leader has rebuilt
/// its soft state from GM summaries and re-registrations. Covers at least one
/// kGmSummaryPeriod so every live GM reports once.
inline constexpr sim::Time kGlReconcileWindow = 2.5;
/// Deadline of one control-plane RPC attempt.
inline constexpr sim::Time kRpcTimeout = 1.0;
/// Boot time of a VM on a healthy LC.
inline constexpr sim::Time kVmBootTime = 2.0;
/// Service time of a gray-failure latency probe on a healthy node; a gray
/// node answers after this times its effective slowdown, which is what the
/// slowness scorer sees.
inline constexpr sim::Time kProbeServiceTime = 0.005;

/// Declarative service-level objectives evaluated by obs::SloEvaluator
/// against the live TimeSeriesStore. Thresholds are maxima ("the SLI must
/// stay below"); a NaN SLI (no data yet) never counts as a breach. Alerts
/// use burn/clear hysteresis: fire after `burn_samples` consecutive
/// breaching samples, clear after `clear_samples` consecutive clearly good
/// samples. The thresholds no caller sets are constants of obs/.
struct SloConfig {
  double submit_p99_max_s = 10.0;  ///< submit→running latency tail
  /// Failover MTTR: gm.fail of the acting GL → gl.reconciled. Default is the
  /// heartbeat-derived bound from E13: session timeout (6 s) + one heartbeat
  /// period (1 s) + kGlReconcileWindow (2.5 s).
  double failover_mttr_max_s = 9.5;
  double heartbeat_staleness_max_s = 3.0;    ///< worst LC heartbeat age seen by GMs
  /// Age of the stalest GM summary at the acting GL. The GL ages a GM out
  /// after kGmSummaryPeriod * kHeartbeatTimeoutFactor (7 s); alerting below
  /// that surfaces a degraded stream before the eviction.
  double summary_staleness_max_s = 6.0;

  int burn_samples = 3;    ///< consecutive breaches before an alert fires
  int clear_samples = 5;   ///< consecutive good samples before it clears

  /// Trailing window of the alert-flap SLI (fire/clear transitions per
  /// window across all SLIs). A healthy long-horizon run alerts rarely; a
  /// flapping one oscillates — the soak gate reads this as a first-class SLI.
  sim::Time flap_window_s = 3600.0;
};

struct SnoozeConfig {
  // --- scheduling -----------------------------------------------------------
  DispatchPolicyKind dispatch_policy = DispatchPolicyKind::kRoundRobin;
  PlacementPolicyKind placement_policy = PlacementPolicyKind::kFirstFit;
  double overload_threshold = 0.90;   ///< LC bottleneck utilization
  double underload_threshold = 0.20;

  // --- reconfiguration (periodic consolidation) ----------------------------
  ConsolidationKind consolidation = ConsolidationKind::kNone;
  sim::Time reconfiguration_period = 0.0;  ///< 0 disables the timer
  std::size_t aco_ants = 6;
  std::size_t aco_cycles = 6;

  // --- energy management ----------------------------------------------------
  bool energy_savings = false;
  sim::Time idle_threshold = 30.0;  ///< idle time before suspending an LC

  /// Reschedule VMs of a failed LC from their last descriptor (the paper's
  /// optional snapshot-based recovery, §II.E).
  bool reschedule_failed_vms = false;

  // --- long-horizon memory bounds -------------------------------------------
  /// GL submission-book entries not re-acknowledged by a GM summary within
  /// this window are pruned (their VM terminated and the client's retry
  /// horizon — seconds — is long past). 0 keeps the book forever.
  sim::Time submission_book_retention = 600.0;

  // --- gray-failure resilience ----------------------------------------------
  /// Gray-failure (fail-slow) detection and containment. Detection is
  /// *peer-relative*: the GM keeps per-LC operation-latency EWMAs (probe
  /// round-trip, StartVm ack, migration slowdown) and scores each LC against
  /// the robust fleet baseline (median / MAD across peers). A node whose
  /// score stays high long enough enters probation (excluded from placement,
  /// monitoring trust halved); sustained degradation escalates to quarantine
  /// (evacuate + suspend), and a clean probe window reinstates it. The GL
  /// applies the same scoring to its GMs (probe round-trip + summary
  /// turnaround) and stops dispatching to flagged GMs — without ever
  /// declaring them dead, so a slow-but-alive leader path never triggers a
  /// spurious failover. Off, the GM sends no probes and contains nothing.
  bool gray_detection = true;

  // --- observability ---------------------------------------------------------
  SloConfig slo;
};

}  // namespace snooze::core
