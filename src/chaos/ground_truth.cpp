#include "chaos/ground_truth.hpp"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace snooze::chaos {

namespace {

/// "lc-001" and "lc-1" name the same node: system actor names zero-pad the
/// index while injector labels don't. Canonicalize to "<role>-<number>".
std::string normalize_node(std::string_view label) {
  const auto dash = label.rfind('-');
  if (dash == std::string_view::npos || dash + 1 >= label.size()) {
    return std::string(label);
  }
  std::string_view num = label.substr(dash + 1);
  if (num.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::string(label);
  }
  std::size_t i = 0;
  while (i + 1 < num.size() && num[i] == '0') ++i;
  return std::string(label.substr(0, dash + 1)) + std::string(num.substr(i));
}

}  // namespace

AttributionScore score_attribution(obs::IncidentReport& report,
                                   const std::vector<InjectedFault>& faults,
                                   double slack_s) {
  AttributionScore score;
  score.faults_total = faults.size();
  std::vector<bool> recalled(faults.size(), false);

  for (auto& ep : report.episodes) {
    for (auto& h : ep.hypotheses) {
      if (h.target.empty()) continue;  // anonymous fallback: unscored
      const std::string want = normalize_node(h.target);
      int best = -1;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        const InjectedFault& f = faults[i];
        if (f.fault_class != h.fault_class) continue;
        if (normalize_node(f.target) != want) continue;
        if (ep.opened > f.cleared + slack_s || ep.closed < f.at - slack_s) {
          continue;
        }
        // Prefer the fault whose injection the evidence saw first.
        if (best < 0 || std::abs(faults[best].at - h.first_evidence) >
                            std::abs(f.at - h.first_evidence)) {
          best = static_cast<int>(i);
        }
      }
      if (best >= 0) {
        ++score.true_positives;
        recalled[best] = true;
        h.matched_fault = best;
        h.detection_latency_s = std::max(0.0, h.first_evidence - faults[best].at);
      } else {
        ++score.false_positives;
      }
    }
  }
  for (const bool r : recalled) {
    if (r) ++score.faults_recalled;
  }
  return score;
}

}  // namespace snooze::chaos
