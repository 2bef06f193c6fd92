#include "core/summary_codec.hpp"

#include <algorithm>

namespace snooze::core {

SummaryUpdate SummaryEncoder::encode(VmLocations current) {
  // Into VmLocations form: ascending by VmId, one entry per VM. A VM listed
  // under two LCs (mid-migration, both report it) keeps the higher address.
  std::sort(current.begin(), current.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  });
  current.erase(std::unique(current.begin(), current.end(),
                            [](const auto& a, const auto& b) { return a.first == b.first; }),
                current.end());
  SummaryUpdate update;
  update.stream = stream_;
  update.seq = next_seq_++;
  // An un-acked predecessor means the GL's base is unknown — it may hold the
  // previous update (ack lost) or not (update lost). Either way a delta
  // against *our* idea of the base is unsafe; snapshot instead.
  update.snapshot = need_snapshot_ || unacked_;
  if (update.snapshot) {
    update.placed = current;
  } else {
    // Both sides ascend by VmId: one linear merge yields adds, moves and
    // removals without lookups.
    auto cur = current.begin();
    auto base = base_.begin();
    while (cur != current.end() || base != base_.end()) {
      if (base == base_.end() || (cur != current.end() && cur->first < base->first)) {
        update.placed.push_back(*cur);  // new VM
        ++cur;
      } else if (cur == current.end() || base->first < cur->first) {
        update.removed.push_back(base->first);  // VM gone
        ++base;
      } else {
        if (cur->second != base->second) update.placed.push_back(*cur);  // moved
        ++cur;
        ++base;
      }
    }
  }
  sent_ = std::move(current);
  need_snapshot_ = false;
  unacked_ = true;
  return update;
}

void SummaryEncoder::on_ack(std::uint64_t seq) {
  if (seq != last_seq()) return;  // late ack for an abandoned update
  base_ = sent_;
  unacked_ = false;
}

void SummaryEncoder::on_nack(std::uint64_t seq) {
  if (seq != last_seq()) return;
  need_snapshot_ = true;
  unacked_ = false;
}

void SummaryEncoder::reset(std::uint64_t stream) {
  base_.clear();
  sent_.clear();
  stream_ = stream;
  next_seq_ = 1;
  need_snapshot_ = true;
  unacked_ = false;
}

bool SummaryDecoder::apply(const SummaryUpdate& update) {
  if (update.snapshot) {
    // The network can duplicate and reorder: a replayed old snapshot must
    // not regress the state. Same stream + old sequence is provably stale
    // (ack it, no-op); an older incarnation's snapshot is stale too (the
    // stream id only ever grows across sender restarts).
    if (synced_ && update.stream == stream_ && update.seq <= last_seq_) return true;
    if (synced_ && update.stream < stream_) return false;
    state_.clear();
    state_.insert(update.placed.begin(), update.placed.end());
    stream_ = update.stream;
    last_seq_ = update.seq;
    synced_ = true;
    return true;
  }
  if (!synced_) return false;  // a delta needs an anchoring snapshot first
  if (update.stream != stream_) return false;  // stale incarnation
  if (update.seq <= last_seq_) return true;  // duplicate delivery: ack, no-op
  if (update.seq != last_seq_ + 1) return false;  // gap: base uncertain
  for (const auto& [vm, lc] : update.placed) state_.insert_or_assign(vm, lc);
  for (const VmId vm : update.removed) state_.erase(vm);
  last_seq_ = update.seq;
  return true;
}

void SummaryDecoder::reset() {
  state_.clear();
  stream_ = 0;
  last_seq_ = 0;
  synced_ = false;
}

}  // namespace snooze::core
