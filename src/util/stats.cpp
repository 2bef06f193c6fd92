#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace snooze::util {

void RunningStats::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::clear() { *this = RunningStats{}; }

void Percentiles::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Percentiles::percentile(double q) {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

void TimeWeighted::set(double t, double value) {
  assert(t >= last_time_);
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
}

double TimeWeighted::integral(double t) const {
  assert(t >= last_time_);
  return integral_ + value_ * (t - last_time_);
}

double TimeWeighted::average(double t) const {
  const double span = t - start_time_;
  if (span <= 0.0) return value_;
  return integral(t) / span;
}

}  // namespace snooze::util
