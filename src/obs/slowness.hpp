// Peer-relative fail-slow detection.
//
// Gray failures degrade a node without killing it: heartbeats keep flowing,
// so crash detectors stay silent while operations crawl. The scorer's core
// idea is that absolute latency thresholds are untunable (a loaded fleet is
// legitimately slower than an idle one), but a *peer-relative* baseline is
// self-calibrating: track a latency EWMA per peer per operation kind, then
// score each peer against the robust fleet baseline (median / MAD across
// peers). A node whose robust z-score stays above kSlownessZFlag for
// kSlownessSustain is flagged slow; hysteresis (kSlownessZClear <
// kSlownessZFlag) keeps a node near the threshold from flapping.
//
// Header-only and engine-free: callers feed samples and periodically call
// evaluate(now). Used by the GM to score its LCs (probe RTT, StartVm ack,
// migration slowdown) and by the GL to score its GMs (probe RTT, summary
// turnaround).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"

namespace snooze::obs {

/// Operation kinds the scorer tracks, each with its own fleet baseline
/// (probe RTTs and migration slowdowns live on different scales).
enum class SlownessMetric : std::uint8_t {
  kProbe = 0,      ///< latency-probe round trip
  kStartVm,        ///< StartVm request -> ack latency
  kMigration,      ///< actual / predicted migration duration ratio
  kSummary,        ///< GM summary inter-arrival gap at the GL
};
inline constexpr std::size_t kSlownessMetricCount = 4;

inline constexpr double kSlownessEwmaAlpha = 0.3;  ///< per-peer per-metric EWMA smoothing
inline constexpr double kSlownessZFlag = 4.0;   ///< robust z-score that marks a peer slow
inline constexpr double kSlownessZClear = 2.0;  ///< hysteretic clear threshold
/// The score must stay above kSlownessZFlag this long to flag the peer.
inline constexpr sim::Time kSlownessSustain = 10.0;

/// Tracks per-peer operation latencies and flags sustained outliers.
/// Peers are keyed by an opaque id (a net::Address in practice).
class SlownessScorer {
 public:
  /// Feed one latency/ratio observation for a peer.
  void add_sample(std::uint64_t peer, SlownessMetric metric, double value) {
    auto& state = peers_[peer];
    auto& m = state.metric[static_cast<std::size_t>(metric)];
    if (m.count == 0) {
      m.ewma = value;
    } else {
      m.ewma += kSlownessEwmaAlpha * (value - m.ewma);
    }
    ++m.count;
  }

  /// Drop all state for a peer (left the group, crashed, re-registered).
  void forget(std::uint64_t peer) { peers_.erase(peer); }

  /// Drop everything (leadership change: a new scorer view starts cold).
  void clear() { peers_.clear(); }

  /// Recompute every peer's score against the current fleet baseline and
  /// update flags (with sustain + hysteresis). Call periodically — typically
  /// right after a probe round.
  void evaluate(sim::Time now) {
    for (std::size_t mi = 0; mi < kSlownessMetricCount; ++mi) {
      // Collect this metric's EWMAs across peers that have samples.
      scratch_.clear();
      for (const auto& [peer, state] : peers_) {
        const auto& m = state.metric[mi];
        if (m.count > 0) scratch_.push_back(m.ewma);
      }
      // Peer-relative scoring needs peers to be relative to: with fewer
      // than 3 observed peers the baseline is meaningless, so the metric
      // contributes no score (never flags in tiny groups).
      if (scratch_.size() < 3) {
        for (auto& [peer, state] : peers_) state.z[mi] = 0.0;
        continue;
      }
      const double median = robust_median(scratch_);
      for (auto& v : scratch_) v = std::abs(v - median);
      double mad = robust_median(scratch_);
      // MAD floor: a perfectly uniform fleet (common in simulation) has
      // MAD 0; floor it at a fraction of the median so only genuinely
      // disproportionate latencies score high.
      mad = std::max(mad, std::max(0.05 * std::abs(median), 1e-9));
      for (auto& [peer, state] : peers_) {
        const auto& m = state.metric[mi];
        state.z[mi] = (m.count > 0) ? (m.ewma - median) / mad : 0.0;
      }
    }
    for (auto& [peer, state] : peers_) {
      double score = 0.0;
      for (std::size_t mi = 0; mi < kSlownessMetricCount; ++mi) {
        score = std::max(score, state.z[mi]);
      }
      state.score = score;
      if (state.flagged) {
        if (score < kSlownessZClear) {
          state.flagged = false;
          state.above_since = -1.0;
        }
      } else if (score > kSlownessZFlag) {
        if (state.above_since < 0.0) state.above_since = now;
        if (now - state.above_since >= kSlownessSustain) state.flagged = true;
      } else {
        state.above_since = -1.0;
      }
    }
  }

  /// Is the peer currently flagged slow? Unknown peers are not.
  [[nodiscard]] bool flagged(std::uint64_t peer) const {
    auto it = peers_.find(peer);
    return it != peers_.end() && it->second.flagged;
  }

  /// Latest robust z-score (max over metrics); 0 for unknown peers.
  [[nodiscard]] double score(std::uint64_t peer) const {
    auto it = peers_.find(peer);
    return it == peers_.end() ? 0.0 : it->second.score;
  }

  [[nodiscard]] std::size_t flagged_count() const {
    std::size_t n = 0;
    for (const auto& [peer, state] : peers_) {
      if (state.flagged) ++n;
    }
    return n;
  }

 private:
  struct MetricState {
    double ewma = 0.0;
    std::uint64_t count = 0;
  };
  struct PeerState {
    MetricState metric[kSlownessMetricCount];
    double z[kSlownessMetricCount] = {};
    double score = 0.0;
    bool flagged = false;
    sim::Time above_since = -1.0;  ///< when score first exceeded kSlownessZFlag
  };

  /// Median via nth_element (mutates the scratch vector).
  static double robust_median(std::vector<double>& v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
    double hi = v[mid];
    if (v.size() % 2 == 0) {
      double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
      return 0.5 * (lo + hi);
    }
    return hi;
  }

  std::unordered_map<std::uint64_t, PeerState> peers_;
  std::vector<double> scratch_;  ///< reused across evaluate() calls
};

}  // namespace snooze::obs
