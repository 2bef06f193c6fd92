#include "obs/slo.hpp"

#include <cmath>

namespace snooze::obs {

SloEvaluator::Sli& SloEvaluator::track(std::string_view sli) {
  auto it = slis_.find(sli);
  if (it == slis_.end()) it = slis_.emplace(std::string(sli), SliStatus{}).first;
  return *it;
}

std::optional<SloTransition> SloEvaluator::observe(Sli& sli, double value, double threshold,
                                                   double now) {
  SliStatus& s = sli.second;
  s.value = value;
  s.threshold = threshold;

  if (std::isnan(value)) {
    // No data: a breach streak cannot continue, but silence is not evidence
    // of recovery either.
    s.burn_streak = 0;
    return std::nullopt;
  }

  const bool breached = value > threshold;
  const bool clearly_good = value < config_.clear_fraction * threshold;

  s.burn_streak = breached ? s.burn_streak + 1 : 0;
  s.clear_streak = clearly_good ? s.clear_streak + 1 : 0;

  std::optional<SloTransition> transition;
  if (s.state == AlertState::kOk) {
    if (s.burn_streak >= config_.burn_samples) {
      s.state = AlertState::kFiring;
      s.clear_streak = 0;
      ++s.times_fired;
      ++firing_;
      transition = SloTransition{sli.first, true, value, threshold};
    }
  } else {
    if (s.clear_streak >= config_.clear_samples) {
      s.state = AlertState::kOk;
      s.burn_streak = 0;
      --firing_;
      transition = SloTransition{sli.first, false, value, threshold};
    }
  }

  if (transition) {
    ++total_transitions_;
    transition_times_.push_back(now);
    prune_transitions(now);
  }
  return transition;
}

double SloEvaluator::flaps_in_window(double now) {
  prune_transitions(now);
  return static_cast<double>(transition_times_.size());
}

void SloEvaluator::prune_transitions(double now) {
  const double horizon = now - config_.flap_window_s;
  while (!transition_times_.empty() && transition_times_.front() < horizon) {
    transition_times_.pop_front();
  }
}

}  // namespace snooze::obs
