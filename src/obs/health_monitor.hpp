// HealthMonitor: the always-on observability head of a SnoozeSystem.
//
// A periodic actor samples cluster state on the DES clock into a
// TimeSeriesStore (fixed cadence = SloConfig::sample_period), derives SLIs
// from the samples / metrics registry / sim trace, feeds them through the
// SloEvaluator, and records every alert transition in the sim trace
// (actor "health", kinds "slo.alert" / "slo.clear") so golden traces and
// chaos invariants can pin alerting behaviour.
//
// Determinism: the tick only *reads* system state — no RNG, no network
// traffic — so enabling the monitor does not move any existing event, and in
// runs where no alert transitions occur the trace hash is unchanged.
//
// SLI formulas (evaluated each tick):
//   submit_p50/p99        client.submit_latency histogram percentiles (s)
//   failover_mttr         mean of gm.fail(acting GL) -> gl.reconciled episode
//                         durations observed in the sim trace (s)
//   energy_per_vm_hour    total joules / VM-hours of useful work; undefined
//                         (NaN) until energy_min_vm_hours accumulated
//   fence_rejected_rate   stale-command rejections per minute over a trailing
//                         60 s window of the series
//   heartbeat_staleness   max age of the newest GM heartbeat across assigned,
//                         powered-on LCs (s)
//   summary_bytes_per_gm  GM->GL summary bytes per sending (alive, non-GL) GM
//                         per summary period over a trailing 60 s window; NaN
//                         until the window holds a sample and a GM sends
//   summary_staleness     age of the stalest GM summary at the acting GL (s);
//                         NaN without a leader that knows a GM
//   gray.slow_nodes       nodes currently flagged slow: LCs on probation or in
//                         quarantine (summed over GMs) + GMs the GL flags
//   gray.quarantined      LCs currently quarantined (evacuated + suspended)
//   rpc.hedges_won        cumulative hedged calls where the backup beat the
//                         primary (telemetry registry)
//   breaker.open_s        cumulative seconds GM endpoints' destinations spent
//                         on a streak of >= 5 consecutive RPC timeouts, each
//                         up to the destination's next reply
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "obs/critical_path.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/actor.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::obs {

class HealthMonitor final : public sim::Actor {
 public:
  /// `max_rows` bounds the time-series ring (0 = unbounded).
  explicit HealthMonitor(core::SnoozeSystem& system, std::size_t max_rows = 4096);

  /// Begin periodic sampling at SloConfig::sample_period.
  void start();

  /// Take one sample at the current virtual time. Idempotent per timestamp:
  /// a second call at the same virtual time is a no-op, so pull-based
  /// readers (CLI) can refresh right before rendering without double-feeding
  /// the hysteresis streaks.
  void sample_now();

  [[nodiscard]] const TimeSeriesStore& store() const { return store_; }
  [[nodiscard]] const SloEvaluator& slo() const { return slo_; }

  /// Every SLI name the monitor is contracted to evaluate, sorted — the
  /// naming-lint test cross-checks this list against what evaluate_slos
  /// actually fed the SloEvaluator, so a drifting or silently-dropped SLI
  /// fails tier-1 instead of rotting as NaN.
  [[nodiscard]] static std::vector<std::string> sli_names();
  /// Alert transitions so far (the registry's slo.alerts_fired/_cleared).
  [[nodiscard]] std::uint64_t alerts_fired() const;
  [[nodiscard]] std::uint64_t alerts_cleared() const;

  /// Completed failover episodes observed so far and their mean duration
  /// (NaN while no episode has completed).
  [[nodiscard]] std::uint64_t failover_episodes() const { return mttr_count_; }
  [[nodiscard]] double failover_mttr() const;

  /// Times the trace ring trimmed records the incremental scan never saw.
  /// Each gap resets the open-episode bookkeeping (an election or
  /// reconciliation may have been inside the trimmed span); MTTR episodes
  /// spanning a gap are dropped rather than mis-closed.
  [[nodiscard]] std::uint64_t scan_gaps() const { return scan_gaps_; }

  /// Critical-path breakdown over all completed submissions so far.
  [[nodiscard]] CriticalPathReport critical_path() const;

  // --- renderers (deterministic ASCII) -------------------------------------
  [[nodiscard]] std::string dashboard() const;  ///< latest series + 60 s rates
  [[nodiscard]] std::string slo_table() const;  ///< SLIs vs thresholds, pass/fail
  [[nodiscard]] std::string top(std::size_t n) const;  ///< busiest LC nodes

 private:
  void tick();
  void scan_trace();  ///< incremental MTTR episode extraction
  void evaluate_slos(double now);

  core::SnoozeSystem& system_;
  TimeSeriesStore store_;
  SloEvaluator slo_;

  /// Gauges set on every sample, so looked up once.
  struct Gauges {
    telemetry::GaugeRef<"gray.slow_nodes"> slow_nodes;
    telemetry::GaugeRef<"gray.quarantined"> quarantined;
    telemetry::GaugeRef<"slo.firing"> slo_firing;
    telemetry::GaugeRef<"slo.flaps_per_hour"> slo_flaps;
  } gauges_;

  // Column indices (registered once in the constructor).
  struct Cols {
    std::size_t hosts_on, hosts_suspended, hosts_off, lcs_assigned, vms_running;
    std::size_t energy_j, energy_on_j, energy_suspended_j, energy_off_j;
    std::size_t work_vm_s, hb_staleness, queue_depth;
    std::size_t placements, migrations, submits, fence_rejected;
    std::size_t mttr_s, failovers, submit_p50, submit_p99, slo_firing, slo_flaps;
    std::size_t summary_bytes_per_gm, summary_staleness;
    std::size_t gray_slow_nodes, gray_quarantined, rpc_hedges_won, breaker_open_s;
  } col_{};

  /// Trailing-window state of the summary-bytes SLI: (time, cumulative GM
  /// summary bytes) samples within the rate window.
  struct BytesSample {
    double time;
    double bytes;
  };
  std::vector<BytesSample> summary_bytes_window_;

  // Incremental sim-trace scan state (survives ring-buffer trimming via the
  // dropped() offset).
  std::uint64_t scanned_records_ = 0;
  std::uint64_t scan_gaps_ = 0;    ///< ring trimmed unscanned records
  std::string current_gl_;      ///< actor name of the acting GL
  double episode_started_ = -1.0;  ///< < 0: no failover episode open
  double mttr_sum_ = 0.0;
  std::uint64_t mttr_count_ = 0;

  bool started_ = false;
};

/// Chrome trace JSON of the span collector with Perfetto counter tracks
/// ("ph":"C") appended for every time-series column, so the series render as
/// counter lanes above the span timeline in the Perfetto UI.
[[nodiscard]] std::string chrome_trace_with_counters(
    const telemetry::SpanCollector& spans, sim::Time now, const TimeSeriesStore& store);

}  // namespace snooze::obs
