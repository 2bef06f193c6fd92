// Property-based tests for the delta summary codec (core/summary_codec.hpp).
//
// The codec's contract: whatever mix of churn, loss, duplication, reordering
// and restarts the stream suffers, a successfully applied fresh update leaves
// the decoder holding EXACTLY the encoder-side VM-location map as of encode
// time — byte-for-byte what a full-summary stream would have delivered —
// and a replayed stale update never moves the decoder at all. Divergence is
// only ever allowed to be loud (apply() == false => nack => snapshot), never
// silent.
//
// Each seeded sequence interleaves state churn (joins, leaves, drains,
// migrations, mass joins) with transport fates (delivered, lost, ack lost,
// duplicated, stale replay) and endpoint resets (sender restart with a new
// stream incarnation, receiver reset on GL change — the "partition" cases).
// A failing sequence is delta-debugged down to a near-minimal reproduction
// before being reported.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/summary_codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace snooze;
using core::SummaryDecoder;
using core::SummaryEncoder;
using core::SummaryUpdate;
using core::VmId;
using core::VmLocationMap;
using core::VmLocations;

// --- operation vocabulary ---------------------------------------------------

struct Op {
  enum class Kind {
    kPlace,          // a new VM lands on some LC
    kMove,           // an existing VM migrates to another LC
    kRemove,         // an existing VM terminates
    kDrain,          // the GM empties out (maintenance drain): map cleared
    kMassJoin,       // a batch of LCs joins and brings many VMs at once
    kRoundOk,        // encode -> deliver -> apply -> ack delivered
    kRoundAckLost,   // encode -> deliver -> apply -> ack lost (sender times out)
    kRoundLost,      // encode -> update lost in transit (sender times out)
    kRoundDuplicated,  // encode -> delivered twice back to back
    kReplayStale,    // some historical update is delivered again (reorder/dup)
    kSenderRestart,  // encoder resets under a bumped stream incarnation
    kReceiverReset,  // decoder starts from scratch (GL change / partition)
  };
  Kind kind;
  std::size_t pick = 0;  // VM / LC / history selector
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::Kind::kPlace: return "place";
    case Op::Kind::kMove: return "move";
    case Op::Kind::kRemove: return "remove";
    case Op::Kind::kDrain: return "drain";
    case Op::Kind::kMassJoin: return "mass-join";
    case Op::Kind::kRoundOk: return "round-ok";
    case Op::Kind::kRoundAckLost: return "round-ack-lost";
    case Op::Kind::kRoundLost: return "round-lost";
    case Op::Kind::kRoundDuplicated: return "round-duplicated";
    case Op::Kind::kReplayStale: return "replay-stale";
    case Op::Kind::kSenderRestart: return "sender-restart";
    case Op::Kind::kReceiverReset: return "receiver-reset";
  }
  return "?";
}

std::vector<Op> generate_ops(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int roll = rng.uniform_int(0, 99);
    Op op{};
    const std::size_t pick = rng.uniform_int<std::size_t>(0, 1u << 16);
    if (roll < 20) {
      op = {Op::Kind::kPlace, pick};
    } else if (roll < 32) {
      op = {Op::Kind::kMove, pick};
    } else if (roll < 44) {
      op = {Op::Kind::kRemove, pick};
    } else if (roll < 47) {
      op = {Op::Kind::kDrain, pick};
    } else if (roll < 52) {
      op = {Op::Kind::kMassJoin, pick};
    } else if (roll < 72) {
      op = {Op::Kind::kRoundOk, pick};
    } else if (roll < 79) {
      op = {Op::Kind::kRoundAckLost, pick};
    } else if (roll < 86) {
      op = {Op::Kind::kRoundLost, pick};
    } else if (roll < 90) {
      op = {Op::Kind::kRoundDuplicated, pick};
    } else if (roll < 94) {
      op = {Op::Kind::kReplayStale, pick};
    } else if (roll < 97) {
      op = {Op::Kind::kSenderRestart, pick};
    } else {
      op = {Op::Kind::kReceiverReset, pick};
    }
    ops.push_back(op);
  }
  return ops;
}

// --- interpreter -------------------------------------------------------------

/// The encoder's input for the full-summary reference `m`: one (VM, LC) pair
/// per VM.
VmLocations locations_of(const VmLocationMap& m) { return {m.begin(), m.end()}; }

std::string dump_map(const VmLocationMap& m) {
  std::ostringstream out;
  out << "{";
  for (const auto& [vm, lc] : m) out << vm << "@" << lc << " ";
  out << "}";
  return out.str();
}

/// Runs `ops` through an encoder/decoder pair. Returns std::nullopt on
/// success, a divergence report otherwise. Pure function of `ops` (required
/// for deterministic shrinking).
std::optional<std::string> run_codec_ops(const std::vector<Op>& ops) {
  SummaryEncoder enc;
  SummaryDecoder dec;
  std::uint64_t stream = 1;
  enc.reset(stream);

  VmLocationMap truth;  // the GM's live VM -> LC map
  VmId next_vm = 1;
  // Everything ever put on the wire, with the encoder-side truth at encode
  // time — the state a replayed update is allowed to re-anchor a decoder to.
  struct Sent {
    SummaryUpdate update;
    VmLocationMap at_encode;
  };
  std::vector<Sent> history;

  auto fail = [&](const std::string& what) {
    return std::optional<std::string>(
        what + "\n  truth=" + dump_map(truth) +
        "\n  decoder=" + dump_map(dec.state()) +
        "\n  enc.last_seq=" + std::to_string(enc.last_seq()) +
        " dec.last_seq=" + std::to_string(dec.last_seq()) +
        " dec.synced=" + (dec.synced() ? "y" : "n"));
  };

  // One protocol round. `deliver`: the update reaches the decoder.
  // `ack_arrives`: the decoder's verdict reaches the encoder (otherwise the
  // sender treats the round as timed out). Returns a failure report or none.
  auto round = [&](bool deliver, bool ack_arrives,
                   bool duplicate) -> std::optional<std::string> {
    const VmLocationMap at_encode = truth;
    const SummaryUpdate update = enc.encode(locations_of(truth));
    history.push_back({update, at_encode});
    if (!deliver) {
      enc.on_nack(update.seq);  // transport timeout
      return std::nullopt;
    }
    const bool ok = dec.apply(update);
    // THE core property: a successfully applied fresh update leaves the
    // decoder with exactly the state a full summary at encode time carried.
    if (ok && dec.state() != at_encode) {
      return fail("applied fresh update but decoder != encoder state at encode");
    }
    if (duplicate) {
      const VmLocationMap before = dec.state();
      const bool ok2 = dec.apply(update);
      if (ok2 != ok) return fail("duplicate delivery changed the verdict");
      if (dec.state() != before) return fail("duplicate delivery moved state");
    }
    if (ack_arrives) {
      if (ok) {
        enc.on_ack(update.seq);
      } else {
        enc.on_nack(update.seq);
      }
    } else {
      enc.on_nack(update.seq);  // verdict lost: sender must assume the worst
    }
    return std::nullopt;
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kPlace:
        truth[next_vm++] = static_cast<net::Address>(1 + op.pick % 64);
        break;
      case Op::Kind::kMove: {
        if (truth.empty()) break;
        auto it = truth.begin();
        std::advance(it, static_cast<long>(op.pick % truth.size()));
        it->second = static_cast<net::Address>(1 + (it->second + op.pick) % 64);
        break;
      }
      case Op::Kind::kRemove: {
        if (truth.empty()) break;
        auto it = truth.begin();
        std::advance(it, static_cast<long>(op.pick % truth.size()));
        truth.erase(it);
        break;
      }
      case Op::Kind::kDrain:
        truth.clear();
        break;
      case Op::Kind::kMassJoin: {
        const std::size_t n = 2 + op.pick % 30;
        for (std::size_t i = 0; i < n; ++i) {
          truth[next_vm++] = static_cast<net::Address>(1 + (op.pick + i) % 64);
        }
        break;
      }
      case Op::Kind::kRoundOk:
        if (auto f = round(true, true, false)) return f;
        break;
      case Op::Kind::kRoundAckLost:
        if (auto f = round(true, false, false)) return f;
        break;
      case Op::Kind::kRoundLost:
        if (auto f = round(false, false, false)) return f;
        break;
      case Op::Kind::kRoundDuplicated:
        if (auto f = round(true, true, true)) return f;
        break;
      case Op::Kind::kReplayStale: {
        // A historical update resurfaces (duplication + reordering). Most
        // replays must be inert, but two are legal state movers: a snapshot
        // anchoring an unsynced (freshly reset) decoder, and a previously
        // lost delta arriving exactly in sequence. Both land the decoder on
        // a *consistent point-in-time* state — the encoder truth at that
        // update's encode time — never on anything in between. Bounded
        // staleness heals on the next in-order update; silent divergence
        // would not, so that is the line the oracle draws.
        if (history.empty()) break;
        const Sent& old = history[op.pick % history.size()];
        const VmLocationMap before = dec.state();
        const bool ok = dec.apply(old.update);
        if (dec.state() != before) {
          const std::string tag = "replay (stream " +
                                  std::to_string(old.update.stream) + " seq " +
                                  std::to_string(old.update.seq) + ") ";
          if (!ok) return fail(tag + "rejected yet moved state");
          if (dec.state() != old.at_encode) {
            return fail(tag + "moved state off its encode-time snapshot");
          }
        }
        break;
      }
      case Op::Kind::kSenderRestart:
        enc.reset(++stream);
        break;
      case Op::Kind::kReceiverReset:
        dec.reset();
        break;
    }
  }

  // Convergence: two clean rounds always land the decoder on the truth. One
  // is not enough — e.g. a freshly reset decoder legally rejects the first
  // round's delta, and the resulting nack makes the second round a snapshot
  // (the "self-heals within one summary period" guarantee). After that, a
  // churn-free round is an empty delta — the steady state the bytes-on-wire
  // SLO banks on.
  if (auto f = round(true, true, false)) return f;
  if (auto f = round(true, true, false)) return f;
  if (dec.state() != truth) return fail("decoder != truth after clean rounds");
  const SummaryUpdate steady = enc.encode(locations_of(truth));
  if (steady.snapshot) return *fail("steady-state update is still a snapshot");
  if (!steady.placed.empty() || !steady.removed.empty()) {
    return fail("steady-state delta is not empty");
  }
  if (!dec.apply(steady)) return fail("steady-state delta rejected");
  if (dec.state() != truth) return fail("decoder != truth after steady delta");
  enc.on_ack(steady.seq);
  return std::nullopt;
}

// --- shrinking ---------------------------------------------------------------

std::vector<Op> shrink(std::vector<Op> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    std::size_t start = 0;
    while (start + chunk <= ops.size()) {
      std::vector<Op> candidate;
      candidate.reserve(ops.size() - chunk);
      candidate.insert(candidate.end(), ops.begin(),
                       ops.begin() + static_cast<long>(start));
      candidate.insert(candidate.end(),
                       ops.begin() + static_cast<long>(start + chunk), ops.end());
      if (run_codec_ops(candidate).has_value()) {
        ops = std::move(candidate);
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return ops;
}

std::string dump_ops(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  {" << kind_name(op.kind) << ", pick=" << op.pick << "}\n";
  }
  return out.str();
}

class SummaryCodecProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SummaryCodecProperty, DecodeOfEncodeMatchesFullSummaryStream) {
  const std::uint64_t seed = GetParam();
  const auto ops = generate_ops(seed, 160);
  const auto failure = run_codec_ops(ops);
  if (!failure.has_value()) return;
  const auto minimal = shrink(ops);
  FAIL() << "seed " << seed << ": " << *run_codec_ops(minimal) << "\n"
         << "minimal reproduction (" << minimal.size() << " ops):\n"
         << dump_ops(minimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryCodecProperty,
                         testing::Range<std::uint64_t>(1, 201));

// --- targeted corners --------------------------------------------------------

TEST(SummaryCodec, FirstUpdateIsASnapshot) {
  SummaryEncoder enc;
  enc.reset(7);
  VmLocationMap m{{1, 10}, {2, 11}};
  const SummaryUpdate u = enc.encode(locations_of(m));
  EXPECT_TRUE(u.snapshot);
  EXPECT_EQ(u.stream, 7u);
  EXPECT_EQ(u.seq, 1u);
  EXPECT_EQ(u.placed.size(), 2u);
  EXPECT_TRUE(u.removed.empty());
}

TEST(SummaryCodec, NormalizedLocationsKeepTheHigherLc) {
  // Listed in LC-address order, as a GM scans its LCs; VM 2 is mid-migration
  // and both LC 10 and LC 12 report it.
  SummaryEncoder enc;
  enc.reset(1);
  const VmLocations listed{{2, 10}, {5, 10}, {1, 11}, {2, 12}, {3, 12}};
  const SummaryUpdate u = enc.encode(listed);
  ASSERT_TRUE(u.snapshot);
  EXPECT_EQ(u.placed, (VmLocations{{1, 11}, {2, 12}, {3, 12}, {5, 10}}));
}

TEST(SummaryCodec, DeltaCarriesOnlyChurn) {
  SummaryEncoder enc;
  SummaryDecoder dec;
  enc.reset(1);
  VmLocationMap m{{1, 10}, {2, 11}, {3, 12}};
  const SummaryUpdate snap = enc.encode(locations_of(m));
  ASSERT_TRUE(dec.apply(snap));
  enc.on_ack(snap.seq);
  m.erase(2);       // leave
  m[3] = 13;        // move
  m[4] = 14;        // join
  const SummaryUpdate delta = enc.encode(locations_of(m));
  EXPECT_FALSE(delta.snapshot);
  EXPECT_EQ(delta.placed.size(), 2u);   // the move + the join
  EXPECT_EQ(delta.removed.size(), 1u);  // the leave
  ASSERT_TRUE(dec.apply(delta));
  EXPECT_EQ(dec.state(), m);
}

TEST(SummaryCodec, LostAckForcesSnapshot) {
  SummaryEncoder enc;
  enc.reset(1);
  VmLocationMap m{{1, 10}};
  const SummaryUpdate first = enc.encode(locations_of(m));
  enc.on_nack(first.seq);  // timeout: the GL's base is unknown
  m[2] = 11;
  const SummaryUpdate second = enc.encode(locations_of(m));
  EXPECT_TRUE(second.snapshot) << "an un-acked base must never seed a delta";
}

TEST(SummaryCodec, UnsyncedDecoderRejectsDeltas) {
  SummaryEncoder enc;
  SummaryDecoder dec;
  enc.reset(1);
  VmLocationMap m{{1, 10}};
  const SummaryUpdate snap = enc.encode(locations_of(m));
  enc.on_ack(snap.seq);  // the ack arrived, but the decoder never saw snap
  m[2] = 11;
  const SummaryUpdate delta = enc.encode(locations_of(m));
  EXPECT_FALSE(delta.snapshot);
  EXPECT_FALSE(dec.apply(delta)) << "delta without an anchoring snapshot";
}

TEST(SummaryCodec, SequenceGapRejected) {
  SummaryEncoder enc;
  SummaryDecoder dec;
  enc.reset(1);
  VmLocationMap m{{1, 10}};
  ASSERT_TRUE(dec.apply(enc.encode(locations_of(m))));
  enc.on_ack(enc.last_seq());
  m[2] = 11;
  const SummaryUpdate lost = enc.encode(locations_of(m));  // never delivered
  enc.on_ack(lost.seq);  // and yet acked?! simulate a corrupt peer
  m[3] = 12;
  const SummaryUpdate next = enc.encode(locations_of(m));
  EXPECT_FALSE(next.snapshot);
  EXPECT_FALSE(dec.apply(next)) << "seq gap must be rejected, not applied";
  EXPECT_EQ(dec.state(), (VmLocationMap{{1, 10}}));
}

TEST(SummaryCodec, StaleSnapshotReplayCannotRegress) {
  SummaryEncoder enc;
  SummaryDecoder dec;
  enc.reset(1);
  VmLocationMap m{{1, 10}};
  const SummaryUpdate old_snap = enc.encode(locations_of(m));
  ASSERT_TRUE(dec.apply(old_snap));
  enc.on_ack(old_snap.seq);
  m[2] = 11;
  const SummaryUpdate delta = enc.encode(locations_of(m));
  ASSERT_TRUE(dec.apply(delta));
  enc.on_ack(delta.seq);
  // The network redelivers the original snapshot out of order.
  EXPECT_TRUE(dec.apply(old_snap)) << "same-stream stale snapshot: ack, no-op";
  EXPECT_EQ(dec.state(), m) << "stale snapshot must not roll the state back";
}

TEST(SummaryCodec, OldIncarnationSnapshotRejected) {
  SummaryEncoder old_enc;
  SummaryEncoder new_enc;
  SummaryDecoder dec;
  old_enc.reset(1);
  new_enc.reset(2);  // the GM restarted
  VmLocationMap old_m{{1, 10}};
  VmLocationMap new_m{{2, 20}};
  const SummaryUpdate ghost = old_enc.encode(locations_of(old_m));  // stuck in the network
  ASSERT_TRUE(dec.apply(new_enc.encode(locations_of(new_m))));
  EXPECT_FALSE(dec.apply(ghost)) << "a previous life's snapshot is stale";
  EXPECT_EQ(dec.state(), new_m);
}

}  // namespace
