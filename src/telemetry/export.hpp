// Exporters for the telemetry subsystem:
//
//   - chrome_trace_json(): Chrome trace_event JSON (complete "X" events, one
//     virtual pid, one tid per actor) loadable in chrome://tracing and
//     https://ui.perfetto.dev. Virtual seconds map to trace microseconds.
//     append_trace_events() adds other layers' events to such an export.
//   - spans_csv(): one row per span — the raw event time series.
//   - metrics_csv(): one row per metric with kind-appropriate columns.
//   - metrics_table(): human-readable snapshot for `metrics show`.
//
// All output is deterministic: metrics iterate in sorted name order, spans in
// begin() order, and actor tids are assigned in first-seen order.
#pragma once

#include <string>
#include <string_view>

#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace snooze::telemetry {

/// `now` closes still-open spans visually (dur up to now, status "open").
[[nodiscard]] std::string chrome_trace_json(const SpanCollector& spans, sim::Time now);

/// `trace`, a chrome_trace_json() export, with `events` (comma-separated,
/// pre-formatted event objects) appended to its traceEvents. Input that does
/// not end in the export's closing "]}" comes back unchanged.
[[nodiscard]] std::string append_trace_events(std::string trace, std::string_view events);

[[nodiscard]] std::string spans_csv(const SpanCollector& spans);

[[nodiscard]] std::string metrics_csv(const MetricsRegistry& registry);

[[nodiscard]] std::string metrics_table(const MetricsRegistry& registry);

}  // namespace snooze::telemetry
