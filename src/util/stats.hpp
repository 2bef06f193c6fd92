// Statistics accumulators used by the simulator and the benchmark harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace snooze::util {

/// Streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  void clear();

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sample-storing accumulator with percentile queries (linear interpolation).
class Percentiles {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// q in [0, 1]; e.g. percentile(0.5) is the median.
  [[nodiscard]] double percentile(double q);
  [[nodiscard]] double median() { return percentile(0.5); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() { return percentile(0.0); }
  [[nodiscard]] double max() { return percentile(1.0); }

  void clear() { samples_.clear(); sorted_ = false; }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Time-weighted integrator: tracks a piecewise-constant signal and computes
/// its integral / time-average. Used by energy meters and utilization stats.
class TimeWeighted {
 public:
  explicit TimeWeighted(double start_time = 0.0, double initial_value = 0.0)
      : last_time_(start_time), value_(initial_value), start_time_(start_time) {}

  /// Record that the signal changes to `value` at time `t` (t must be
  /// monotonically non-decreasing).
  void set(double t, double value);

  /// Integral of the signal from start to `t`.
  [[nodiscard]] double integral(double t) const;

  /// Time-average of the signal over [start, t].
  [[nodiscard]] double average(double t) const;

  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] double last_update() const { return last_time_; }

 private:
  double last_time_;
  double value_;
  double start_time_;
  double integral_ = 0.0;
};

}  // namespace snooze::util
