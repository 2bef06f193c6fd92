#include "telemetry/metrics.hpp"

#include <algorithm>

namespace snooze::telemetry {

int Histogram::bucket_index(double value) {
  if (!(value >= kMinValue)) return 0;  // underflow; also catches NaN
  const int i =
      1 + static_cast<int>(std::floor(std::log10(value / kMinValue) *
                                      static_cast<double>(kBucketsPerDecade)));
  return std::min(i, kNumBuckets - 1);
}

double Histogram::bucket_lower(int i) {
  if (i <= 0) return 0.0;
  return kMinValue *
         std::pow(10.0, static_cast<double>(i - 1) / static_cast<double>(kBucketsPerDecade));
}

double Histogram::bucket_upper(int i) {
  return kMinValue *
         std::pow(10.0, static_cast<double>(i) / static_cast<double>(kBucketsPerDecade));
}

void Histogram::observe(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::observe(double value, std::uint64_t span_id, double time) {
  observe(value);
  if (exemplars_ == nullptr || span_id == 0) return;
  Exemplar& slot = (*exemplars_)[static_cast<std::size_t>(bucket_index(value))];
  if (slot.span_id == 0 || value > slot.value) {
    slot = Exemplar{value, span_id, time};
  }
}

void Histogram::enable_exemplars() {
  if (exemplars_ == nullptr) {
    exemplars_ = std::make_unique<std::array<Exemplar, kNumBuckets>>();
  }
}

const Histogram::Exemplar* Histogram::exemplar(int i) const {
  if (exemplars_ == nullptr) return nullptr;
  const Exemplar& slot = (*exemplars_)[static_cast<std::size_t>(i)];
  return slot.span_id != 0 ? &slot : nullptr;
}

const Histogram::Exemplar* Histogram::worst_exemplar() const {
  if (exemplars_ == nullptr) return nullptr;
  for (int i = kNumBuckets - 1; i >= 0; --i) {
    const Exemplar& slot = (*exemplars_)[static_cast<std::size_t>(i)];
    if (slot.span_id != 0) return &slot;
  }
  return nullptr;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count]; walk the cumulative distribution and
  // interpolate inside the bucket containing the rank. Buckets are
  // logarithmic, so interpolate geometrically (uniform in log space): the
  // linear midpoint of a log-bucket overestimates by up to half the bucket
  // ratio, which is exactly the p50/p99 bias the SLO evaluator cares about.
  const double target = std::max(1.0, q * static_cast<double>(count_));
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::uint64_t in_bucket = buckets_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double fraction =
          (target - static_cast<double>(cumulative)) / static_cast<double>(in_bucket);
      const double lower = bucket_lower(i);
      const double upper = bucket_upper(i);
      // The underflow bucket starts at 0 where log-space interpolation is
      // undefined; fall back to linear there.
      const double value = lower > 0.0
                               ? lower * std::pow(upper / lower, fraction)
                               : lower + fraction * (upper - lower);
      return std::clamp(value, min_, max_);
    }
    cumulative += in_bucket;
  }
  return max_;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>(engine_))
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_.emplace(std::string(name), std::make_unique<Histogram>())
              .first->second;
}

void MetricsRegistry::flush_gauges() {
  for (auto& [name, gauge] : gauges_) gauge->flush();
}

std::uint64_t MetricsRegistry::value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c == nullptr ? 0 : c->value();
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

}  // namespace snooze::telemetry
