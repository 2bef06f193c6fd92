// Delta encoding for the GM -> GL summary stream.
//
// A full summary re-lists every VM location each period, so GL ingest is
// O(total VMs) per period — the protocol wall on the way to 100k LCs. The
// delta stream sends only per-VM location changes against the last state the
// GL *acknowledged*, falling back to a full snapshot whenever that base is
// uncertain (first contact, lost or negative ack, GL change). Steady healthy
// state is therefore pure deltas; any doubt on either side degrades to a
// snapshot, never to silent divergence.
//
// The codec is pure state-machine logic with no networking or time, so the
// property suite (tests/summary_codec_property_test.cpp) can drive hundreds
// of seeded join/leave/drain/partition histories against a full-summary
// reference and shrink failures to minimal counterexamples.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "net/network.hpp"

namespace snooze::core {

/// Where each VM of one GM currently runs — the state a summary stream
/// replicates from GM to GL.
using VmLocationMap = std::map<VmId, net::Address>;

/// One encoded summary: either a self-contained snapshot (`snapshot` set,
/// `placed` lists every VM, `removed` empty) or a delta against the
/// previously acknowledged state. Sequence numbers are per-stream and
/// strictly increasing; deltas apply only in order.
struct SummaryUpdate {
  bool snapshot = false;
  /// Stream incarnation: bumped by the sender on restart so a duplicated
  /// delta from a previous life can never collide with the fresh stream's
  /// sequence numbers. Snapshots re-anchor the decoder to their stream.
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::vector<std::pair<VmId, net::Address>> placed;  ///< new or moved VMs
  std::vector<VmId> removed;                          ///< VMs no longer hosted
};

/// GM side: turns the current VM-location map into the smallest update that
/// is provably safe to send. Deltas are only ever computed against the last
/// *acknowledged* state — an un-acked previous update (timeout, loss) or an
/// explicit nack forces the next update to be a snapshot, so the GL can
/// never apply a delta against a base it does not hold.
class SummaryEncoder {
 public:
  /// Encode the next update for `current`. Emits a snapshot when one is
  /// needed (first send, forced, or the previous update was never
  /// positively acked); otherwise a delta against the acked base.
  SummaryUpdate encode(const VmLocationMap& current);

  /// Positive ack for `seq` from the GL: the state sent under that sequence
  /// becomes the delta base. Acks for anything but the latest sequence are
  /// ignored (a late duplicate of an older ack must not resurrect an
  /// abandoned base).
  void on_ack(std::uint64_t seq);

  /// Negative ack (`ok=false` reply) or transport timeout for `seq`: the GL
  /// did not — or may not — hold the update, so the next encode snapshots.
  void on_nack(std::uint64_t seq);

  /// Force the next update to be a snapshot regardless of ack state (GL
  /// address/epoch change, local restart).
  void force_snapshot() { need_snapshot_ = true; }

  /// Drop all stream state (component restart): sequence numbers restart
  /// under a fresh `stream` incarnation and the next update is a snapshot.
  void reset(std::uint64_t stream);

  [[nodiscard]] std::uint64_t last_seq() const { return next_seq_ - 1; }
  [[nodiscard]] std::uint64_t stream() const { return stream_; }

 private:
  VmLocationMap base_;  ///< state as of the last positively acked update
  VmLocationMap sent_;  ///< state encoded into the latest update
  std::uint64_t stream_ = 0;
  std::uint64_t next_seq_ = 1;
  bool need_snapshot_ = true;  ///< first contact or forced
  bool unacked_ = false;       ///< latest update has no positive ack yet
};

/// GL side: applies updates in order, rejecting anything it cannot prove
/// consistent (delta without a synced base, sequence gap). A rejected update
/// makes the GL nack, which makes the GM snapshot — the stream self-heals
/// within one summary period.
class SummaryDecoder {
 public:
  /// Apply one update. Returns true when the update is now reflected in
  /// state() — including duplicate deliveries of already-applied sequences,
  /// which are acked but not re-applied. Returns false when the update
  /// cannot be applied safely (the caller should nack).
  bool apply(const SummaryUpdate& update);

  /// Drop all replica state (leadership change on the GL side).
  void reset();

  [[nodiscard]] const VmLocationMap& state() const { return state_; }
  [[nodiscard]] bool synced() const { return synced_; }
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }

 private:
  VmLocationMap state_;
  std::uint64_t stream_ = 0;
  std::uint64_t last_seq_ = 0;
  bool synced_ = false;  ///< a snapshot has anchored the stream
};

}  // namespace snooze::core
