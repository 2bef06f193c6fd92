// Always-on metrics registry for the simulated Snooze deployment.
//
// Three metric kinds, all integrated against the DES virtual clock and cheap
// enough to leave enabled for every run:
//
//   - Counter:   monotonically increasing event count (messages, placements).
//   - Gauge:     piecewise-constant signal with *time-weighted* integral and
//                average (running VMs, suspended nodes) — "47 VMs for 10s"
//                weighs ten times "47 VMs for 1s", which a sample mean of the
//                set() calls would get wrong.
//   - Histogram: fixed log-bucket distribution with percentile queries (RPC
//                latency, submission latency). Buckets are fixed at compile
//                time so observe() is an index computation plus an increment.
//
// Metrics are created on first use and live for the registry's lifetime, so
// hot paths may cache the returned reference/pointer and skip the name
// lookup entirely. Determinism: nothing here reads the RNG or schedules
// events; identical runs produce identical metric values.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace snooze::telemetry {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Time-weighted gauge: set()/add() stamp the change with the engine's
/// virtual now(); integral() and average() weigh each value by how long it
/// was held.
class Gauge {
 public:
  explicit Gauge(sim::Engine& engine)
      : engine_(engine), acc_(engine.now(), 0.0) {}

  void set(double value) { acc_.set(engine_.now(), value); }
  void add(double delta) { acc_.set(engine_.now(), acc_.current() + delta); }
  /// Fold the segment since the last set() into the stored integral at the
  /// current virtual time without changing the value. Called at end-of-run
  /// (and before exports) so the final held segment is committed even if the
  /// gauge is read through a path that passes a stale timestamp.
  void flush() { acc_.set(engine_.now(), acc_.current()); }

  [[nodiscard]] double current() const { return acc_.current(); }
  /// Integral of the signal from gauge creation to virtual now().
  [[nodiscard]] double integral() const { return acc_.integral(engine_.now()); }
  /// Time-average of the signal from gauge creation to virtual now().
  [[nodiscard]] double average() const { return acc_.average(engine_.now()); }

 private:
  sim::Engine& engine_;
  util::TimeWeighted acc_;
};

/// Fixed log-bucket histogram: kBucketsPerDecade buckets per decade across
/// [kMinValue, kMaxValue), plus underflow (index 0, values < kMinValue,
/// including zero) and overflow (last index) buckets. With kMinValue = 1e-6 s
/// the usable range spans microsecond RPC latencies to ~11-day intervals.
class Histogram {
 public:
  static constexpr double kMinValue = 1e-6;
  static constexpr int kBucketsPerDecade = 10;
  static constexpr int kDecades = 12;
  static constexpr int kNumBuckets = kDecades * kBucketsPerDecade + 2;

  /// Worst sample retained for one log-bucket, with the span id + sim time
  /// the instrumentation site attached — links a tail bucket back to the
  /// causal span tree that produced it.
  struct Exemplar {
    double value = 0.0;
    std::uint64_t span_id = 0;  ///< 0 = slot empty
    double time = 0.0;
  };

  void observe(double value);
  /// observe() plus exemplar context. Identical to observe(value) unless
  /// enable_exemplars() was called; a zero span id is never retained.
  void observe(double value, std::uint64_t span_id, double time);

  /// Allocate exemplar storage. Off by default: until enabled, the
  /// span-carrying observe() overload behaves exactly like observe(value)
  /// and exports are byte-identical.
  void enable_exemplars();
  /// The exemplar of the highest occupied bucket (the worst retained
  /// sample); nullptr when disabled or none retained.
  [[nodiscard]] const Exemplar* worst_exemplar() const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

  /// q in [0, 1]. Linear interpolation inside the containing bucket, clamped
  /// to the observed [min, max]; 0.0 when empty.
  [[nodiscard]] double percentile(double q) const;

  [[nodiscard]] std::uint64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Lower/upper value bound of bucket i (lower of the underflow bucket is 0).
  [[nodiscard]] static double bucket_lower(int i);
  [[nodiscard]] static double bucket_upper(int i);

 private:
  [[nodiscard]] static int bucket_index(double value);

  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::unique_ptr<std::array<Exemplar, kNumBuckets>> exemplars_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metric store. Lookups create on first use; references stay valid for
/// the registry's lifetime (metrics are held by unique_ptr). Iteration order
/// is the sorted name order (std::map), so exports are deterministic.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(sim::Engine& engine) : engine_(engine) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Flush every gauge's pending time segment at the current virtual time.
  /// Call at end-of-run / before exporting so the last held value is weighed.
  void flush_gauges();

  /// A counter's value without creating it; 0 when it was never bumped.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// Lookup without creating; nullptr when the metric does not exist.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  using CounterMap = std::map<std::string, std::unique_ptr<Counter>, std::less<>>;
  using GaugeMap = std::map<std::string, std::unique_ptr<Gauge>, std::less<>>;
  using HistogramMap = std::map<std::string, std::unique_ptr<Histogram>, std::less<>>;

  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const { return histograms_; }

 private:
  sim::Engine& engine_;
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

}  // namespace snooze::telemetry
