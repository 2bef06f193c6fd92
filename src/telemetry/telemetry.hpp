// Telemetry bundle: one MetricsRegistry plus one SpanCollector, owned by the
// system under observation (SnoozeSystem) and reachable from every component
// through Network::telemetry(). Components must tolerate a null Telemetry*
// (unit tests build networks without one); the free helpers below fold that
// null check and the invalid-context check into the call site.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <type_traits>

#include "sim/engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace snooze::telemetry {

class Telemetry {
 public:
  explicit Telemetry(sim::Engine& engine) : metrics_(engine), spans_(engine) {}

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] SpanCollector& spans() { return spans_; }
  [[nodiscard]] const SpanCollector& spans() const { return spans_; }

  /// Mirror the engine's queue counters into the registry. Pull-based by
  /// design: exporters and the CLI call this right before reading metrics,
  /// so observation never schedules events (a periodic sampler would perturb
  /// the event stream and break the golden-trace determinism contract).
  void sample_engine(const sim::Engine& engine) {
    const sim::Engine::Stats& st = engine.stats();
    const auto mirror = [this](std::string_view name, std::uint64_t value) {
      Counter& c = metrics_.counter(name);
      if (value > c.value()) c.inc(value - c.value());
    };
    mirror("engine.events_scheduled", st.scheduled);
    mirror("engine.events_fired", st.fired);
    mirror("engine.events_cancelled", st.cancelled);
    mirror("engine.events_overflowed", st.overflowed);
    mirror("engine.events_promoted", st.promoted);
    metrics_.gauge("engine.queue_depth")
        .set(static_cast<double>(engine.pending_events()));
    metrics_.gauge("engine.peak_queue_depth")
        .set(static_cast<double>(st.peak_pending));
    metrics_.gauge("engine.events_per_sec_wall").set(engine.events_per_second());
    // Exporters and the CLI read right after this call: commit every gauge's
    // tail segment so the weighted means include the value held since the
    // last set() up to virtual now().
    metrics_.flush_gauges();
  }

 private:
  MetricsRegistry metrics_;
  SpanCollector spans_;
};

// --- null-safe instrumentation helpers -------------------------------------

inline void count(Telemetry* t, std::string_view name, std::uint64_t delta = 1) {
  if (t != nullptr) t->metrics().counter(name).inc(delta);
}

inline void observe(Telemetry* t, std::string_view name, double value) {
  if (t != nullptr) t->metrics().histogram(name).observe(value);
}

/// observe() carrying exemplar context: when the histogram has exemplars
/// enabled, the sample's bucket retains its worst (value, span, time).
inline void observe(Telemetry* t, std::string_view name, double value,
                    const SpanContext& ctx, double now) {
  if (t != nullptr) {
    t->metrics().histogram(name).observe(value, ctx.span_id, now);
  }
}

inline void gauge_add(Telemetry* t, std::string_view name, double delta) {
  if (t != nullptr) t->metrics().gauge(name).add(delta);
}

inline void gauge_set(Telemetry* t, std::string_view name, double value) {
  if (t != nullptr) t->metrics().gauge(name).set(value);
}

// --- hot-path handles --------------------------------------------------------

/// A metric name given as a template argument: `CounterRef<"rpc.calls">`.
template <std::size_t N>
struct MetricName {
  constexpr MetricName(const char (&name)[N]) {  // NOLINT(google-explicit-constructor)
    std::copy_n(name, N, chars);
  }
  [[nodiscard]] constexpr std::string_view view() const { return {chars, N - 1}; }
  char chars[N]{};
};

/// A registry metric updated once per message or tick: the name is looked up
/// on the first update, later updates go through the kept pointer. The
/// lookup is lazy, so a metric nothing updates never enters the registry,
/// exactly as with a by-name update, and exports do not change. A handle
/// follows the Telemetry it is given: another one (or null) looks up again.
/// The name lives in the type, so a handle is two pointers (thousands of
/// endpoints each keep a dozen).
template <typename Metric, MetricName Name>
class MetricRef {
 public:
  /// The metric in `t`'s registry, created on first use; null when `t` is.
  Metric* get(Telemetry* t) {
    if (t != owner_) {
      owner_ = t;
      metric_ = t == nullptr ? nullptr : &lookup(t->metrics());
    }
    return metric_;
  }

 private:
  static Metric& lookup(MetricsRegistry& registry) {
    if constexpr (std::is_same_v<Metric, Counter>) {
      return registry.counter(Name.view());
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      return registry.gauge(Name.view());
    } else {
      return registry.histogram(Name.view());
    }
  }

  Telemetry* owner_ = nullptr;
  Metric* metric_ = nullptr;
};

template <MetricName Name>
using CounterRef = MetricRef<Counter, Name>;
template <MetricName Name>
using GaugeRef = MetricRef<Gauge, Name>;
template <MetricName Name>
using HistogramRef = MetricRef<Histogram, Name>;

template <MetricName Name>
void count(Telemetry* t, CounterRef<Name>& ref, std::uint64_t delta = 1) {
  if (Counter* c = ref.get(t)) c->inc(delta);
}

template <MetricName Name>
void gauge_set(Telemetry* t, GaugeRef<Name>& ref, double value) {
  if (Gauge* g = ref.get(t)) g->set(value);
}

template <MetricName Name>
void observe(Telemetry* t, HistogramRef<Name>& ref, double value) {
  if (Histogram* h = ref.get(t)) h->observe(value);
}

/// Open a child span of `parent`; no-op (invalid context) without telemetry
/// or when the parent context carries no trace.
inline SpanContext begin_span(Telemetry* t, const SpanContext& parent,
                              std::string_view name, std::string_view actor,
                              std::string_view detail = {}) {
  if (t == nullptr || !parent.valid()) return {};
  return t->spans().begin(parent.trace_id, parent.span_id, name, actor, detail);
}

inline void end_span(Telemetry* t, const SpanContext& ctx,
                     std::string_view status = "ok") {
  if (t != nullptr && ctx.valid()) t->spans().end(ctx, status);
}

}  // namespace snooze::telemetry
