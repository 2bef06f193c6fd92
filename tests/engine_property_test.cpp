// Property-based tests for the calendar-queue event engine.
//
// The engine promises exactly one observable ordering: events fire in
// (time ascending, scheduling-sequence ascending) order, cancellation
// physically removes entries, and stale handles are rejected. These tests
// drive randomized schedule/cancel/run/periodic-timer sequences against a
// trivially correct reference model (an ordered map keyed by (time,
// insertion sequence), whose timers reschedule themselves at the end of
// each tick) and compare the full firing order. A failing sequence is
// shrunk by repeatedly deleting chunks (halving) before being reported, so
// the output is a near-minimal reproduction, not 400 opaque operations.
//
// Also here: the dead-timeout leak tests — every successful RPC cancels its
// timeout, and cancellation must leave no physical residue in the queue
// (queued_entries() == pending_events(), no tombstones) — and the timer-table
// leak test: crashed actors' timers must give their table entries back.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace snooze;
using sim::EventId;
using sim::Time;

// --- operation vocabulary ---------------------------------------------------

struct Op {
  enum class Kind {
    kNear,         // schedule within the bucket window (delay < 2 s)
    kTie,          // schedule_at the exact time of a pending event (FIFO tie)
    kZero,         // schedule with zero delay
    kFar,          // schedule far beyond the 64 s near window (overflow path)
    kChain,        // event whose callback schedules a follow-up
    kCancel,       // cancel a tracked handle (pending or already fired)
    kCancelStale,  // cancel a handle that is known dead (must return false)
    kRun,          // run_until(now + value)
    kBurst,        // jittered fan-out into one or two buckets, then cancels
    kEvery,        // periodic timer (Engine::every); pick seeds its behaviour
  };
  Kind kind;
  double value = 0.0;    // delay / horizon increment
  std::size_t pick = 0;  // selects a handle for cancel ops
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::Kind::kNear: return "near";
    case Op::Kind::kTie: return "tie";
    case Op::Kind::kZero: return "zero";
    case Op::Kind::kFar: return "far";
    case Op::Kind::kChain: return "chain";
    case Op::Kind::kCancel: return "cancel";
    case Op::Kind::kCancelStale: return "cancel-stale";
    case Op::Kind::kRun: return "run";
    case Op::Kind::kBurst: return "burst";
    case Op::Kind::kEvery: return "every";
  }
  return "?";
}

std::vector<Op> generate_ops(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  while (ops.size() < count) {
    const int roll = rng.uniform_int(0, 99);
    Op op{};
    if (roll < 5) {
      op = {Op::Kind::kEvery, 0.0, rng.uniform_int<std::size_t>(1, 1u << 30)};
    } else if (roll < 35) {
      op = {Op::Kind::kNear, rng.uniform(0.0, 2.0), 0};
    } else if (roll < 45) {
      op = {Op::Kind::kTie, 0.0, rng.uniform_int<std::size_t>(0, 1u << 16)};
    } else if (roll < 50) {
      op = {Op::Kind::kZero, 0.0, 0};
    } else if (roll < 60) {
      op = {Op::Kind::kFar, rng.uniform(100.0, 50000.0), 0};
    } else if (roll < 65) {
      op = {Op::Kind::kChain, rng.uniform(0.0, 2.0), 0};
    } else if (roll < 80) {
      op = {Op::Kind::kCancel, 0.0, rng.uniform_int<std::size_t>(0, 1u << 16)};
    } else if (roll < 85) {
      op = {Op::Kind::kCancelStale, 0.0, rng.uniform_int<std::size_t>(0, 1u << 16)};
    } else if (roll < 90) {
      // A storm of fan-outs back to back, like one monitoring period across
      // several GMs: the population climbs through a geometry threshold
      // while bursts are in flight. value offsets each burst from now();
      // pick seeds everything else.
      const int storm = rng.uniform_int(1, 12);
      for (int k = 0; k < storm && ops.size() < count; ++k) {
        ops.push_back({Op::Kind::kBurst, rng.uniform(0.0, 40.0),
                       rng.uniform_int<std::size_t>(1, 1u << 30)});
      }
      continue;
    } else {
      // Mostly short runs; occasionally jump far enough to drain overflow.
      const double dt = rng.chance(0.2) ? rng.uniform(100.0, 20000.0)
                                        : rng.uniform(0.1, 5.0);
      op = {Op::Kind::kRun, dt, 0};
    }
    ops.push_back(op);
  }
  return ops;
}

// --- periodic timers ----------------------------------------------------------

/// What a periodic timer does. Each tick's actions are a pure function of
/// the spec and the tick number, so the engine-side callback and the
/// model's replay of it take the same decisions in the same order.
struct TimerSpec {
  double period = 1.0;
  std::uint64_t seed = 0;
  int ticks = 1;  ///< the callback returns false on this tick
  int depth = 0;  ///< nesting level: timers registered by ticks go one deeper
};
constexpr int kMaxTimerDepth = 2;

TimerSpec random_timer_spec(util::Rng& rng, int depth) {
  // Half the periods come from a few exactly representable values, so
  // timers registered at the same instant tie with each other.
  static constexpr double kRound[] = {0.125, 0.25, 0.5, 1.0};
  TimerSpec spec;
  spec.period = rng.chance(0.5) ? kRound[rng.uniform_int(0, 3)] : rng.uniform(0.05, 3.0);
  spec.seed = rng.next_u64();
  spec.ticks = rng.uniform_int(1, 16);
  spec.depth = depth;
  return spec;
}

struct TickPlan {
  bool cancel_prev = false;  ///< cancel the one-shot this timer scheduled last
  bool one_shot = false;     ///< schedule a one-shot shot_delay ahead
  double shot_delay = 0.0;
  bool spawn = false;        ///< register the child timer
  TimerSpec child;
};

TickPlan plan_tick(const TimerSpec& spec, int tick) {
  util::Rng rng(spec.seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(tick)));
  TickPlan plan;
  plan.cancel_prev = rng.chance(0.3);
  plan.one_shot = rng.chance(0.6);
  switch (rng.uniform_int(0, 2)) {
    case 0: plan.shot_delay = spec.period; break;  // ties the timer's next tick
    case 1: plan.shot_delay = 0.0; break;
    default: plan.shot_delay = rng.uniform(0.0, 2.0 * spec.period); break;
  }
  plan.spawn = spec.depth < kMaxTimerDepth && rng.chance(0.15);
  if (plan.spawn) plan.child = random_timer_spec(rng, spec.depth + 1);
  return plan;
}

int tick_token(std::size_t timer, int tick) {
  return 2'000'000 + static_cast<int>(timer) * 100 + tick;
}
int shot_token(std::size_t timer, int tick) {
  return 3'000'000 + static_cast<int>(timer) * 100 + tick;
}

// --- interpreter + reference model ------------------------------------------

/// Runs `ops` against a fresh engine and the reference model in lockstep.
/// Returns std::nullopt on success, otherwise a human-readable divergence
/// report. Pure function of `ops` — required for deterministic shrinking.
std::optional<std::string> run_ops(const std::vector<Op>& ops) {
  sim::Engine engine(42);

  // Reference: key order IS the contract. Sequence numbers are allocated in
  // the same relative order as the engine's (schedules outside runs happen in
  // op order; chain schedules happen in pop order, which matches inductively).
  using Key = std::pair<Time, std::uint64_t>;
  constexpr std::size_t kNoTimer = static_cast<std::size_t>(-1);
  struct ModelEvent {
    int token;
    bool chain;
    std::size_t timer = kNoTimer;  ///< a tick of this timer (token unused)
  };
  std::map<Key, ModelEvent> model;
  std::uint64_t model_seq = 1;

  std::vector<int> fired;     // tokens in engine firing order
  std::vector<int> expected;  // tokens in model order
  int next_token = 0;

  // Periodic timers, indexed by registration order (the same on both sides:
  // op order, then pop order for timers registered by ticks). Each side
  // also logs the time of every tick and the result of every cancel a tick
  // makes.
  struct EngineTimer {
    TimerSpec spec;
    int ticks = 0;
    EventId last_shot = 0;
  };
  struct ModelTimer {
    TimerSpec spec;
    int ticks = 0;
    std::optional<Key> last_shot;
  };
  std::vector<EngineTimer> engine_timers;
  std::vector<ModelTimer> model_timers;
  std::vector<Time> engine_tick_times;
  std::vector<Time> model_tick_times;
  std::vector<bool> engine_tick_cancels;
  std::vector<bool> model_tick_cancels;

  struct Tracked {
    EventId id;
    Key key;
  };
  std::vector<Tracked> tracked;     // cancellable op-level events
  std::vector<EventId> dead;        // ids known fired or cancelled
  std::uint64_t cancels_issued = 0;

  constexpr double kChainDelay = 0.375;  // exactly representable, lands near

  // Engine-side callback factory. Chain follow-ups reuse the parent token
  // offset by a large constant so both sides derive the same token without
  // sharing a counter across the engine/model boundary.
  std::function<void(int, bool)> fire = [&](int token, bool chain) {
    fired.push_back(token);
    if (chain) {
      engine.schedule(kChainDelay,
                      [&fire, token] { fire(token + 1'000'000, false); });
    }
  };

  std::function<void(const TimerSpec&)> engine_every = [&](const TimerSpec& spec) {
    const std::size_t id = engine_timers.size();
    engine_timers.push_back({spec, 0, 0});
    engine.every(spec.period, [&, id] {
      // By index, never by reference: a spawn below grows engine_timers.
      const int tick = ++engine_timers[id].ticks;
      fired.push_back(tick_token(id, tick));
      engine_tick_times.push_back(engine.now());
      const TickPlan plan = plan_tick(engine_timers[id].spec, tick);
      if (plan.cancel_prev && engine_timers[id].last_shot != 0) {
        engine_tick_cancels.push_back(engine.cancel(engine_timers[id].last_shot));
        engine_timers[id].last_shot = 0;
      }
      if (plan.one_shot) {
        const int token = shot_token(id, tick);
        engine_timers[id].last_shot =
            engine.schedule(plan.shot_delay, [&fired, token] { fired.push_back(token); });
      }
      if (plan.spawn) engine_every(plan.child);
      return tick < engine_timers[id].spec.ticks;
    });
  };
  auto model_every = [&](Time now, const TimerSpec& spec) {
    model.emplace(Key{now + spec.period, model_seq++},
                  ModelEvent{0, false, model_timers.size()});
    model_timers.push_back({spec, 0, std::nullopt});
  };
  // Pop one model event. A timer tick replays the reference semantics of a
  // closure that reschedules itself: run the tick's actions, then, unless
  // it was the last tick, schedule the next one period later — after the
  // tick's own schedules, so with the next sequence number.
  auto model_fire = [&](const Key& key, const ModelEvent& ev) {
    if (ev.timer == kNoTimer) {
      expected.push_back(ev.token);
      if (ev.chain) {
        model.emplace(Key{key.first + kChainDelay, model_seq++},
                      ModelEvent{ev.token + 1'000'000, false});
      }
      return;
    }
    const std::size_t id = ev.timer;
    const int tick = ++model_timers[id].ticks;
    expected.push_back(tick_token(id, tick));
    model_tick_times.push_back(key.first);
    const TickPlan plan = plan_tick(model_timers[id].spec, tick);
    if (plan.cancel_prev && model_timers[id].last_shot.has_value()) {
      model_tick_cancels.push_back(model.erase(*model_timers[id].last_shot) > 0);
      model_timers[id].last_shot.reset();
    }
    if (plan.one_shot) {
      const Key shot{key.first + plan.shot_delay, model_seq++};
      model.emplace(shot, ModelEvent{shot_token(id, tick), false});
      model_timers[id].last_shot = shot;
    }
    if (plan.spawn) model_every(key.first, plan.child);
    if (tick < model_timers[id].spec.ticks) {
      model.emplace(Key{key.first + model_timers[id].spec.period, model_seq++}, ev);
    }
  };

  auto schedule_both = [&](Time at, bool chain) {
    const int token = next_token++;
    const EventId id =
        engine.schedule_at(at, [&fire, token, chain] { fire(token, chain); });
    const Key key{at, model_seq++};
    model.emplace(key, ModelEvent{token, chain});
    tracked.push_back({id, key});
  };

  auto fail = [&](const std::string& what) -> std::optional<std::string> {
    std::ostringstream out;
    out << what << "\n  fired " << fired.size() << " events, expected "
        << expected.size() << " at t=" << engine.now();
    const std::size_t n = std::min(fired.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (fired[i] != expected[i]) {
        out << "\n  first divergence at event " << i << ": engine fired token "
            << fired[i] << ", model expected token " << expected[i];
        break;
      }
    }
    return out.str();
  };

  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kNear:
      case Op::Kind::kChain:
        schedule_both(engine.now() + op.value, op.kind == Op::Kind::kChain);
        break;
      case Op::Kind::kZero:
        schedule_both(engine.now(), false);
        break;
      case Op::Kind::kFar:
        schedule_both(engine.now() + op.value, false);
        break;
      case Op::Kind::kEvery: {
        util::Rng spec_rng(op.pick);
        const TimerSpec spec = random_timer_spec(spec_rng, 0);
        engine_every(spec);
        model_every(engine.now(), spec);
        break;
      }
      case Op::Kind::kTie: {
        if (model.empty()) break;  // nothing pending to tie with
        auto it = model.begin();
        std::advance(it, static_cast<long>(op.pick % model.size()));
        schedule_both(it->first.first, false);
        break;
      }
      case Op::Kind::kCancel: {
        if (tracked.empty()) break;
        const std::size_t i = op.pick % tracked.size();
        const Tracked target = tracked[i];
        const bool pending = model.count(target.key) > 0;
        const bool cancelled = engine.cancel(target.id);
        if (cancelled != pending) {
          return fail(pending ? "cancel of pending event returned false"
                              : "cancel of fired event returned true");
        }
        if (pending) {
          model.erase(target.key);
          ++cancels_issued;
        }
        tracked.erase(tracked.begin() + static_cast<long>(i));
        dead.push_back(target.id);
        break;
      }
      case Op::Kind::kCancelStale: {
        if (dead.empty()) break;
        if (engine.cancel(dead[op.pick % dead.size()])) {
          return fail("stale handle cancel returned true");
        }
        break;
      }
      case Op::Kind::kBurst: {
        // A synchronized fan-out whose deliveries carry random link jitter:
        // 50-500 events within less than one bucket width of a base time,
        // so they land in one or two buckets in no (time, seq) order. The
        // base is either a fresh instant ahead (unsorted buckets), now()
        // (the cursor's bucket), or just before the earliest pending event,
        // whose bucket the last run's peek() has already sorted — inserts
        // there must keep the drain order. Up to half of the burst is then
        // cancelled in random order. A burst's schedules and cancels span
        // a good part of a retune interval, so storms that carry the
        // population across a geometry threshold rescale mid-burst.
        util::Rng burst(op.pick);
        const int n = burst.uniform_int(50, 500);
        const double width = engine.bucket_width();
        Time base = engine.now() + op.value;
        switch (burst.uniform_int(0, 2)) {
          case 0: base = engine.now(); break;
          case 1:
            if (!model.empty()) {
              base = std::max(engine.now(), model.begin()->first.first - 0.5 * width);
            }
            break;
          default: break;
        }
        const double jitter = burst.uniform(0.1, 0.99) * width;
        const std::size_t first = tracked.size();
        for (int i = 0; i < n; ++i) {
          schedule_both(base + burst.uniform(0.0, jitter), false);
        }
        std::vector<Tracked> mine(tracked.begin() + static_cast<long>(first),
                                  tracked.end());
        tracked.resize(first);
        burst.shuffle(mine);
        const std::size_t cancels = burst.uniform_int<std::size_t>(0, mine.size() / 2);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          if (i < cancels) {
            if (!engine.cancel(mine[i].id)) {
              return fail("cancel of a burst event returned false");
            }
            model.erase(mine[i].key);
            ++cancels_issued;
            dead.push_back(mine[i].id);
          } else {
            tracked.push_back(mine[i]);
          }
        }
        if (engine.queued_entries() != engine.pending_events()) {
          return fail("queued_entries() != pending_events() after a burst");
        }
        break;
      }
      case Op::Kind::kRun: {
        const Time horizon = engine.now() + op.value;
        engine.run_until(horizon);
        // Mirror: pop every model event due by the horizon, in key order.
        while (!model.empty() && model.begin()->first.first <= horizon) {
          const auto [key, ev] = *model.begin();
          model.erase(model.begin());
          model_fire(key, ev);
        }
        if (fired != expected) return fail("firing order diverged");
        if (engine_tick_times != model_tick_times) return fail("a timer ticked off time");
        if (engine_tick_cancels != model_tick_cancels) {
          return fail("a cancel made by a timer tick returned the wrong result");
        }
        if (engine.pending_events() != model.size()) {
          return fail("pending_events() != model size (" +
                      std::to_string(engine.pending_events()) + " vs " +
                      std::to_string(model.size()) + ")");
        }
        if (engine.queued_entries() != engine.pending_events()) {
          return fail("queued_entries() != pending_events() — tombstone leak");
        }
        break;
      }
    }
  }

  // Drain both sides completely.
  engine.run();
  while (!model.empty()) {
    const auto [key, ev] = *model.begin();
    model.erase(model.begin());
    model_fire(key, ev);
  }
  if (fired != expected) return fail("firing order diverged after drain");
  if (engine_tick_times != model_tick_times) return fail("a timer ticked off time");
  if (engine_tick_cancels != model_tick_cancels) {
    return fail("a cancel made by a timer tick returned the wrong result");
  }
  // Every tick is exactly one scheduled event, as with the self-rescheduling
  // closure the model implements.
  if (engine.stats().scheduled != model_seq - 1) {
    return fail("stats().scheduled disagrees with the model's schedule count");
  }
  if (engine.live_timers() != 0) return fail("timers alive after their last tick");
  if (engine.timer_slots() > model_timers.size()) {
    return fail("timer table larger than the number of timers ever registered");
  }
  if (engine.pending_events() != 0) return fail("events left after full drain");
  if (engine.queued_entries() != 0) return fail("entries left after full drain");
  const auto tick_cancels = static_cast<std::uint64_t>(
      std::count(model_tick_cancels.begin(), model_tick_cancels.end(), true));
  if (engine.stats().cancelled != cancels_issued + tick_cancels) {
    return fail("stats().cancelled disagrees with successful cancel count");
  }
  if (engine.stats().fired != fired.size()) {
    return fail("stats().fired disagrees with observed firings");
  }
  return std::nullopt;
}

// --- shrinking ---------------------------------------------------------------

/// Delete chunks of halving size while the sequence still fails; classic
/// delta-debugging. The result is locally minimal w.r.t. chunk removal.
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
      if (run_ops(candidate).has_value()) {
        ops = std::move(candidate);  // still fails without the chunk: keep cut
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
    out << "  {" << kind_name(op.kind) << ", value=" << op.value
        << ", pick=" << op.pick << "}\n";
  }
  return out.str();
}

class EngineProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, MatchesReferenceModel) {
  const std::uint64_t seed = GetParam();
  const auto ops = generate_ops(seed, 400);
  const auto failure = run_ops(ops);
  if (!failure.has_value()) return;
  const auto minimal = shrink(ops);
  FAIL() << "seed " << seed << ": " << *run_ops(minimal) << "\n"
         << "minimal reproduction (" << minimal.size() << " ops):\n"
         << dump_ops(minimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         testing::Range<std::uint64_t>(1, 31));

// --- targeted determinism corners -------------------------------------------

TEST(EngineOrdering, SameTimestampFifo) {
  sim::Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineOrdering, FarEventsPromoteInOrder) {
  sim::Engine engine;
  std::vector<int> order;
  // All well beyond the 64 s near window, interleaved with near events.
  engine.schedule(5000.0, [&] { order.push_back(2); });
  engine.schedule(200.0, [&] { order.push_back(1); });
  engine.schedule(0.5, [&] { order.push_back(0); });
  engine.schedule(5000.0, [&] { order.push_back(3); });  // FIFO tie in far map
  EXPECT_GE(engine.stats().overflowed, 3u);
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // The tied 5000 s event is promoted when its twin's pop advances the
  // cursor; far events the cursor lands on directly pop without promotion.
  EXPECT_GE(engine.stats().promoted, 1u);
}

TEST(EngineOrdering, CancelIsPhysicalRemoval) {
  sim::Engine engine;
  int fired = 0;
  const auto a = engine.schedule(1.0, [&] { ++fired; });
  const auto b = engine.schedule(2.0, [&] { ++fired; });
  const auto c = engine.schedule(100.0, [&] { ++fired; });  // far map
  EXPECT_EQ(engine.queued_entries(), 3u);
  EXPECT_TRUE(engine.cancel(b));
  EXPECT_TRUE(engine.cancel(c));
  EXPECT_EQ(engine.queued_entries(), 1u);  // no tombstones anywhere
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_FALSE(engine.cancel(b)) << "double cancel must fail";
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.cancel(a)) << "cancel after firing must fail";
}

TEST(EngineOrdering, ZeroDelayFiresAtCurrentTime) {
  sim::Engine engine;
  engine.schedule(1.0, [&] {
    const double t = engine.now();
    engine.schedule(0.0, [&engine, t] { EXPECT_DOUBLE_EQ(engine.now(), t); });
  });
  EXPECT_EQ(engine.run(), 2u);
}

TEST(EngineOrdering, SlotReuseInvalidatesOldHandles) {
  sim::Engine engine;
  const auto a = engine.schedule(1.0, [] {});
  ASSERT_TRUE(engine.cancel(a));
  // The freed slot is recycled by the next schedule; the old handle's
  // generation no longer matches and must not cancel the new event.
  const auto b = engine.schedule(2.0, [] {});
  EXPECT_FALSE(engine.cancel(a));
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_TRUE(engine.cancel(b));
}

// --- rescale / retune property tests -----------------------------------------
//
// The adaptive geometry retunes bucket count/width as the population moves
// between regimes (1k -> 100k -> back). These tests pin the two properties a
// resize must preserve: the observable firing order is untouched (checked
// against the ordered-map reference across every rescale boundary), and
// cancellation stays physical — queued_entries() == pending_events() at every
// stage, so no rescale ever strands a dead entry or loses a live one.

TEST(EngineRescale, GrowCancelShrinkPreservesOrderAndLeaksNothing) {
  sim::Engine engine;
  util::Rng rng(2026);

  const std::size_t initial_buckets = engine.bucket_count();

  struct Ref {
    Time t;
    int token;
    EventId id;
    bool cancelled = false;
  };
  std::vector<Ref> refs;
  std::vector<int> fired;

  // Grow: ~100k events across a 40 s burst window plus a far tail beyond the
  // 64 s near window, pushing the population through several grow retunes.
  constexpr int kNearEvents = 100000;
  constexpr int kFarEvents = 800;
  refs.reserve(kNearEvents + kFarEvents);
  int token = 0;
  for (int i = 0; i < kNearEvents + kFarEvents; ++i) {
    const Time t = i < kNearEvents ? rng.uniform(0.0, 40.0) : rng.uniform(100.0, 5000.0);
    const int tok = token++;
    const EventId id = engine.schedule_at(t, [&fired, tok] { fired.push_back(tok); });
    refs.push_back({t, tok, id});
  }
  ASSERT_EQ(engine.pending_events(), refs.size());
  ASSERT_EQ(engine.queued_entries(), refs.size());
  EXPECT_GT(engine.stats().resizes, 0u) << "100k events must trigger a grow retune";
  const std::size_t grown_buckets = engine.bucket_count();
  EXPECT_GT(grown_buckets, initial_buckets);

  // Staged drain of the first 10 s: firing order must match the reference
  // across whatever rescale boundaries the drain crosses.
  for (const double horizon : {2.5, 5.0, 7.5, 10.0}) {
    engine.run_until(horizon);
    EXPECT_EQ(engine.queued_entries(), engine.pending_events())
        << "leak after draining to t=" << horizon;
  }
  std::vector<int> expected;
  for (const Ref& r : refs) {
    if (r.t <= 10.0) expected.push_back(r.token);
  }
  std::stable_sort(expected.begin(), expected.end(), [&refs](int a, int b) {
    return refs[static_cast<std::size_t>(a)].t < refs[static_cast<std::size_t>(b)].t;
  });
  ASSERT_EQ(fired, expected) << "firing order diverged across grow rescales";

  // Shrink: cancel the surviving population down to ~1.5%, checking at every
  // slice that cancellation through rescales leaves zero physical residue.
  std::size_t since_check = 0;
  for (Ref& r : refs) {
    if (r.t <= 10.0) continue;  // already fired
    if (rng.uniform() < 0.985) {
      ASSERT_TRUE(engine.cancel(r.id)) << "live event refused cancellation";
      r.cancelled = true;
      if (++since_check == 4096) {
        since_check = 0;
        ASSERT_EQ(engine.queued_entries(), engine.pending_events())
            << "dead-cancel residue mid-shrink";
      }
    }
  }
  EXPECT_EQ(engine.queued_entries(), engine.pending_events());
  EXPECT_GT(engine.stats().resizes, 1u) << "the cancel wave must trigger a shrink retune";
  EXPECT_LT(engine.bucket_count(), grown_buckets)
      << "geometry must shrink back once the population collapses";

  // Full drain: the sparse survivors (including the far tail) still fire in
  // exact reference order, and double-cancel of the dead stays rejected.
  fired.clear();
  expected.clear();
  for (const Ref& r : refs) {
    if (r.t > 10.0 && !r.cancelled) expected.push_back(r.token);
  }
  std::stable_sort(expected.begin(), expected.end(), [&refs](int a, int b) {
    return refs[static_cast<std::size_t>(a)].t < refs[static_cast<std::size_t>(b)].t;
  });
  engine.run();
  EXPECT_EQ(fired, expected) << "firing order diverged across shrink rescales";
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queued_entries(), 0u);
  for (const Ref& r : refs) {
    if (r.cancelled) {
      ASSERT_FALSE(engine.cancel(r.id)) << "cancelled handle resurrected by a rescale";
    }
  }
}

TEST(EngineRescale, DrainAloneShrinksGeometryBack) {
  sim::Engine engine;
  util::Rng rng(7);
  const std::size_t initial_buckets = engine.bucket_count();
  int fired = 0;
  for (int i = 0; i < 100000; ++i) {
    engine.schedule_at(rng.uniform(0.0, 40.0), [&fired] { ++fired; });
  }
  const std::size_t grown_buckets = engine.bucket_count();
  EXPECT_GT(grown_buckets, initial_buckets);
  engine.run();
  EXPECT_EQ(fired, 100000);
  // The run loop retunes as the population drains; an empty queue must not
  // be left holding a 100k-sized table.
  EXPECT_LT(engine.bucket_count(), grown_buckets);
  EXPECT_EQ(engine.queued_entries(), 0u);
  // And the geometry stays live: a fresh small population after the collapse
  // behaves exactly like a young engine.
  engine.schedule(1.0, [&fired] { ++fired; });
  engine.schedule(2.0, [&fired] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 100002);
}

// --- dead-timeout leak tests -------------------------------------------------

struct Ping final : net::MessageOf<Ping> {
  [[nodiscard]] std::string_view type() const override { return "ping"; }
  [[nodiscard]] std::size_t wire_size() const override { return 64; }
};

struct Pong final : net::MessageOf<Pong> {
  [[nodiscard]] std::string_view type() const override { return "pong"; }
};

TEST(TimeoutLeak, SuccessfulRpcsLeaveNoTimeoutResidue) {
  sim::Engine engine;
  net::Network network(engine);
  net::RpcEndpoint server(engine, network, network.allocate_address(), "server");
  net::RpcEndpoint client(engine, network, network.allocate_address(), "client");
  server.set_request_handler(
      [](const net::Envelope&, net::Responder r) { r.respond(std::make_shared<Pong>()); });

  constexpr int kCalls = 500;
  constexpr double kTimeout = 5.0;
  int ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    engine.schedule(0.01 * i, [&] {
      client.call(server.address(), std::make_shared<Ping>(), kTimeout,
                  [&ok](bool success, const net::MsgPtr&) { ok += success ? 1 : 0; });
    });
  }
  // Run past the last reply but well before the earliest timeout horizon:
  // every timeout event must already have been cancelled — and cancelled
  // means physically gone, not tombstoned.
  engine.run_until(0.01 * kCalls + 1.0);
  EXPECT_EQ(ok, kCalls);
  EXPECT_EQ(engine.pending_events(), 0u) << "dead timeout events left pending";
  EXPECT_EQ(engine.queued_entries(), 0u) << "tombstones left in the queue";
  EXPECT_GE(engine.stats().cancelled, static_cast<std::uint64_t>(kCalls));
  // Nothing may fire between here and the timeout horizon.
  const auto processed = engine.processed_events();
  engine.run_until(0.01 * kCalls + kTimeout + 10.0);
  EXPECT_EQ(engine.processed_events(), processed);
}

TEST(TimeoutLeak, RetriedRpcsDrainCompletely) {
  sim::Engine engine;
  net::Network network(engine);
  net::RpcEndpoint server(engine, network, network.allocate_address(), "server");
  net::RpcEndpoint client(engine, network, network.allocate_address(), "client");
  server.set_request_handler(
      [](const net::Envelope&, net::Responder r) { r.respond(std::make_shared<Pong>()); });
  // Half the requests vanish: timeouts fire, backoff timers run, retries go
  // out. Whatever mix of fired/cancelled timers results, the queue must end
  // physically empty — any residue is a leak at 10k-LC heartbeat scale.
  net::LinkFaults lossy;
  lossy.drop = 0.5;
  network.set_link_faults(client.address(), server.address(), lossy);

  constexpr int kCalls = 200;
  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff = 0.2;
  int done = 0;
  for (int i = 0; i < kCalls; ++i) {
    engine.schedule(0.05 * i, [&] {
      client.call_with_retries(server.address(), std::make_shared<Ping>(), 0.5,
                               policy,
                               [&done](bool, const net::MsgPtr&) { ++done; });
    });
  }
  engine.run();
  EXPECT_EQ(done, kCalls) << "every call must complete exactly once";
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queued_entries(), 0u);
  EXPECT_GT(engine.stats().cancelled, 0u);
}

// --- timer-table leak test ----------------------------------------------------

/// An actor with four periodic timers that a test can cycle through
/// crash/recover/restart, either from outside a run or from inside one of
/// its own ticks.
class Ticker final : public sim::Actor {
 public:
  Ticker(sim::Engine& engine, int id) : sim::Actor(engine, "ticker" + std::to_string(id)) {}

  void start() {
    every(0.5, [this] {
      ++ticks;
      if (restart_from_tick) {
        // Registers four timers while the engine is running this one's
        // callback: the table grows (or reuses entries) mid-call.
        restart_from_tick = false;
        restart();
      }
      return true;
    });
    for (const double period : {1.25, 2.0, 3.0}) {
      every(period, [this] {
        ++ticks;
        return true;
      });
    }
  }

  void restart() {
    crash();
    recover();
    start();
  }

  bool restart_from_tick = false;
  std::uint64_t ticks = 0;
};

// 1k actors with 4 timers each go through 50 crash/recover/restart cycles:
// odd actors from inside their own tick, then even actors between runs. A
// crashed actor's timers end on their next tick and give their entries
// back, so the table never holds more than the old and the new generation
// (it stays bounded by the live timers instead of growing each cycle), and
// each live timer has exactly one pending event. The first in-tick phase
// grows the table past its initial 4k entries while a callback is running.
TEST(TimerLeak, CrashRecoverCyclesKeepTheTableBounded) {
  sim::Engine engine;
  constexpr int kActors = 1000;
  constexpr std::size_t kLive = 4 * kActors;
  std::vector<std::unique_ptr<Ticker>> actors;
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(std::make_unique<Ticker>(engine, i));
    actors.back()->start();
  }
  ASSERT_EQ(engine.live_timers(), kLive);

  std::size_t peak_slots = 0;
  const auto check = [&](int cycle) {
    ASSERT_EQ(engine.live_timers(), kLive) << "cycle " << cycle;
    ASSERT_EQ(engine.pending_events(), kLive) << "cycle " << cycle;
    ASSERT_EQ(engine.queued_entries(), engine.pending_events()) << "cycle " << cycle;
    ASSERT_LE(engine.timer_slots(), 2 * kLive) << "cycle " << cycle;
    peak_slots = std::max(peak_slots, engine.timer_slots());
  };
  for (int cycle = 0; cycle < 50; ++cycle) {
    // Odd actors restart within 0.5 s, from their own tick; every old timer
    // then ticks once more (periods <= 3 s) and ends.
    for (std::size_t i = 1; i < actors.size(); i += 2) actors[i]->restart_from_tick = true;
    engine.run_until(engine.now() + 5.0);
    check(cycle);
    for (std::size_t i = 0; i < actors.size(); i += 2) actors[i]->restart();
    engine.run_until(engine.now() + 5.0);
    check(cycle);
  }
  EXPECT_EQ(engine.timer_slots(), peak_slots) << "the table never shrinks, only reuses";
  for (const auto& actor : actors) EXPECT_GT(actor->ticks, 0u);

  // Crashing everyone retires every timer at its next tick.
  for (const auto& actor : actors) actor->crash();
  engine.run_until(engine.now() + 5.0);
  EXPECT_EQ(engine.live_timers(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.queued_entries(), 0u);
}

}  // namespace
