// Incident engine: episode segmentation + ranked root-cause attribution.
//
// Consumes the evidence stream from `obs/causality.hpp` and segments the run
// into *incident episodes*: an episode opens at the first strong signal (a
// death log, an SLO burn alert, a failover detection, a containment-ladder
// action, an invariant breach) and closes hysteretically — it absorbs every
// further signal that arrives within 30 s of the last one, and is considered
// closed at the time of its final signal once the trace has been quiet that
// long. Within each episode the engine tallies vote mass per
// (fault class, blamed node) pair and emits ranked hypotheses; blast radius
// comes from the `client.submit` span trees overlapping the window.
//
// The engine is strictly passive and offline: it reads a snapshot of the
// trace and span collector after the run, touches no clock, RNG, or event
// queue, and therefore cannot perturb a deterministic run — same-seed chaos
// hashes and golden traces are byte-identical whether or not it runs.
//
// Ground truth stays out of this layer by design. `chaos/ground_truth.hpp`
// extracts the injected schedule from the `chaos.*` records this engine
// refuses to read, scores the hypotheses against it, and back-annotates
// matches + detection latency into the report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/causality.hpp"
#include "sim/trace.hpp"
#include "telemetry/span.hpp"

namespace snooze::obs {

/// One ranked root-cause candidate for an episode.
struct Hypothesis {
  FaultClass fault_class = FaultClass::kUnknown;
  std::string target;           ///< blamed node; empty = anonymous (weak)
  double vote_mass = 0.0;
  double confidence = 0.0;      ///< vote_mass / episode total
  double first_evidence = 0.0;  ///< time of the earliest supporting vote
  std::string rationale;        ///< up to three "kind@t" supporting cites
  // Filled by chaos::score_attribution when ground truth is available:
  int matched_fault = -1;           ///< index into the injected schedule
  double detection_latency_s = -1;  ///< first_evidence - injection time
};

struct IncidentEpisode {
  int id = 0;
  double opened = 0.0;          ///< first signal
  double closed = 0.0;          ///< last signal (quiet window elapsed after)
  bool open_at_end = false;     ///< run ended inside the quiet window
  std::string opened_by;        ///< kind of the opening record
  std::vector<Evidence> evidence;      ///< full causal chain, time order
  std::vector<Hypothesis> hypotheses;  ///< ranked by vote mass, best first
  // Blast radius over [opened, closed]:
  std::uint64_t submits = 0;         ///< client.submit spans overlapping
  std::uint64_t failed_submits = 0;  ///< ... that ended "failed"
  std::uint64_t alerts = 0;          ///< slo.alert signals inside
  std::vector<std::string> affected_vms;    ///< sorted vm ids (from spans)
  std::vector<std::string> affected_nodes;  ///< sorted actors + targets
  // Slowest client.submit span overlapping the window (0 = none closed):
  std::uint64_t slowest_submit_span = 0;
  double slowest_submit_s = 0.0;

  [[nodiscard]] double mttr_s() const { return closed - opened; }
};

struct IncidentReport {
  std::vector<IncidentEpisode> episodes;
  double run_end = 0.0;

  /// One row per hypothesis (episodes without one get an "unknown" row).
  [[nodiscard]] std::string table() const;
  /// Machine-readable: one CSV row per hypothesis.
  [[nodiscard]] std::string csv() const;
  /// Detailed single-episode view: timeline, ranked hypotheses, blast
  /// radius, and the slowest submit's span tree (when a collector is given).
  [[nodiscard]] std::string show(int id,
                                 const telemetry::SpanCollector* spans) const;
};

/// Run the engine over a trace snapshot. `spans` may be null (blast radius
/// then counts trace records only); `run_end` bounds the last episode.
[[nodiscard]] IncidentReport analyze_incidents(
    const std::vector<sim::TraceRecord>& records,
    const telemetry::SpanCollector* spans, double run_end,
    const AddressNames& names);

/// Splice incident windows ("X" duration events) and weighted evidence
/// ("i" instants) into a chrome://tracing JSON export
/// (telemetry::append_trace_events).
[[nodiscard]] std::string chrome_trace_with_incidents(
    std::string base, const IncidentReport& report);

}  // namespace snooze::obs
