// Ground truth + attribution scoring for the incident engine.
//
// The ground truth is the injector's own record of the fault windows it
// opened (ChaosInjector::faults()): injection time, clear time, fault class
// and the *resolved* target ("gm-1" for a fault aimed at the GL, "lc-1" for
// a stretched node). This module grades an `obs::IncidentReport` against it:
// a node-blaming hypothesis is a true positive when its class and target
// match an injected fault whose active window overlaps the episode; an
// injected fault is recalled when at least one hypothesis matches it.
// Anonymous (targetless) hypotheses are deliberately unscored — they are the
// engine's honest "something happened here" fallback, not an attribution
// claim. Link and global-loss windows name no node, so no hypothesis
// matches them.
//
// This is the only place diagnosis and ground truth meet: the evidence
// collector in `obs/causality.hpp` skips every `chaos.*` record, so the
// score measures reconstruction from observable behavior, not label leaks.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/causality.hpp"
#include "obs/incident.hpp"

namespace snooze::chaos {

/// One fault window, as recorded by the injector that opened it.
struct InjectedFault {
  double at = 0.0;        ///< injection time
  double cleared = 0.0;   ///< recover/heal time (+infinity if never healed)
  obs::FaultClass fault_class = obs::FaultClass::kUnknown;
  std::string target;     ///< resolved node/link label; empty for global drop
  std::string kind;       ///< injector record kind ("chaos.crash", ...)
};

struct AttributionScore {
  std::size_t true_positives = 0;   ///< matched node-blaming hypotheses
  std::size_t false_positives = 0;  ///< node-blaming hypotheses matching nothing
  std::size_t faults_total = 0;
  std::size_t faults_recalled = 0;  ///< faults matched by >= 1 hypothesis

  [[nodiscard]] double precision() const {
    const std::size_t n = true_positives + false_positives;
    return n == 0 ? 1.0 : static_cast<double>(true_positives) / n;
  }
  [[nodiscard]] double recall() const {
    return faults_total == 0
               ? 1.0
               : static_cast<double>(faults_recalled) / faults_total;
  }
};

/// Grade the report against the injected schedule and back-annotate each
/// matched hypothesis with its fault index and detection latency (first
/// supporting evidence minus injection time). `slack_s` widens each fault's
/// active window on both sides to absorb detection lag past the heal.
AttributionScore score_attribution(obs::IncidentReport& report,
                                   const std::vector<InjectedFault>& faults,
                                   double slack_s = 10.0);

}  // namespace snooze::chaos
