// Unit tests for the discrete-event simulation kernel: event ordering,
// cancellation, run horizons, actor lifetime guarding, periodic timers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/actor.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace {

using namespace snooze;

TEST(Engine, StartsAtTimeZero) {
  sim::Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Engine, EventsFireInTimeOrder) {
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule(3.0, [&] { order.push_back(3); });
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakInSchedulingOrder) {
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule(1.0, [&] { order.push_back(1); });
  engine.schedule(1.0, [&] { order.push_back(2); });
  engine.schedule(1.0, [&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NowAdvancesToEventTime) {
  sim::Engine engine;
  double seen = -1.0;
  engine.schedule(2.5, [&] { seen = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Engine, RunUntilStopsAtHorizon) {
  sim::Engine engine;
  int fired = 0;
  engine.schedule(1.0, [&] { ++fired; });
  engine.schedule(5.0, [&] { ++fired; });
  engine.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, RunUntilAdvancesClockToHorizonWhenIdle) {
  sim::Engine engine;
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine engine;
  bool fired = false;
  const auto id = engine.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelTwiceFails) {
  sim::Engine engine;
  const auto id = engine.schedule(1.0, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, CancelUnknownIdFails) {
  sim::Engine engine;
  EXPECT_FALSE(engine.cancel(0));
  EXPECT_FALSE(engine.cancel(9999));
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  sim::Engine engine;
  std::vector<double> times;
  engine.schedule(1.0, [&] {
    times.push_back(engine.now());
    engine.schedule(1.0, [&] { times.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Engine, StopAbortsRun) {
  sim::Engine engine;
  int fired = 0;
  engine.schedule(1.0, [&] {
    ++fired;
    engine.stop();
  });
  engine.schedule(2.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  engine.run();  // resumes where it stopped
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ZeroDelayFiresAtCurrentTime) {
  sim::Engine engine;
  engine.schedule(1.0, [&] {
    engine.schedule(0.0, [&] { EXPECT_DOUBLE_EQ(engine.now(), 1.0); });
  });
  EXPECT_EQ(engine.run(), 2u);
}

TEST(Engine, ProcessedEventsCounter) {
  sim::Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule(1.0, [] {});
  engine.run();
  EXPECT_EQ(engine.processed_events(), 5u);
}

// --- Actor ---------------------------------------------------------------------

class TestActor final : public sim::Actor {
 public:
  using sim::Actor::Actor;
  int fired = 0;

  void arm(double delay) {
    after(delay, [this] { ++fired; });
  }
  void arm_periodic(double period, int max_ticks) {
    every(period, [this, max_ticks] {
      ++fired;
      return fired < max_ticks;
    });
  }
  sim::EventId arm_cancellable(double delay) {
    return after(delay, [this] { ++fired; });
  }
  /// A periodic timer whose tick number `crash_at` crashes the actor and
  /// still returns true.
  void arm_periodic_crashing(double period, int crash_at) {
    every(period, [this, crash_at] {
      if (++fired == crash_at) crash();
      return true;
    });
  }
  void cancel_event(sim::EventId id) { cancel(id); }
};

TEST(Actor, AfterFires) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm(1.0);
  engine.run();
  EXPECT_EQ(actor.fired, 1);
}

TEST(Actor, CrashDropsPendingCallbacks) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm(1.0);
  actor.crash();
  engine.run();
  EXPECT_EQ(actor.fired, 0);
}

TEST(Actor, DestructionDropsPendingCallbacks) {
  sim::Engine engine;
  {
    TestActor actor(engine, "a");
    actor.arm(1.0);
  }
  engine.run();  // must not crash dereferencing the dead actor
}

TEST(Actor, PeriodicTimerRepeatsUntilFalse) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm_periodic(1.0, 4);
  engine.run_until(100.0);
  EXPECT_EQ(actor.fired, 4);
}

TEST(Actor, PeriodicTimerStopsOnCrash) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm_periodic(1.0, 1000000);
  engine.schedule(3.5, [&] { actor.crash(); });
  engine.run_until(50.0);
  EXPECT_EQ(actor.fired, 3);  // ticks at 1, 2, 3
}

// The three clauses of a periodic tick's guard, `*token && fn() && *token`,
// one case each.

TEST(Actor, PeriodicTimerEndsWhenItsTickCrashesTheActor) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm_periodic_crashing(1.0, 3);
  engine.run_until(2.5);  // ticks at 1 and 2
  EXPECT_EQ(actor.fired, 2);
  EXPECT_EQ(engine.live_timers(), 1u);
  engine.run_until(3.0);  // the tick at 3 crashes the actor and returns true
  EXPECT_EQ(actor.fired, 3);
  EXPECT_EQ(engine.live_timers(), 0u) << "the timer must end at the crashing tick";
  EXPECT_EQ(engine.pending_events(), 0u) << "an ended timer schedules no next tick";
  engine.run_until(50.0);
  EXPECT_EQ(actor.fired, 3);
}

TEST(Actor, RecoveredActorDoesNotReviveOldTimers) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.arm_periodic(1.0, 1000000);
  engine.run_until(2.5);  // ticks at 1 and 2
  ASSERT_EQ(actor.fired, 2);
  actor.crash();
  actor.recover();  // a fresh token: the old timer's stays false
  ASSERT_TRUE(actor.alive());
  engine.run_until(3.0);  // the old timer's next due tick ends it
  EXPECT_EQ(actor.fired, 2);
  EXPECT_EQ(engine.live_timers(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
  engine.run_until(50.0);
  EXPECT_EQ(actor.fired, 2);
}

TEST(Actor, DestructionEndsPeriodicTimers) {
  sim::Engine engine;
  auto actor = std::make_unique<TestActor>(engine, "a");
  actor->arm_periodic(1.0, 1000000);
  engine.run_until(1.5);
  ASSERT_EQ(actor->fired, 1);
  actor.reset();  // its timer is still in the table, due at 2
  EXPECT_EQ(engine.live_timers(), 1u);
  // The tick must read the token, which outlives the actor, and not call fn
  // (which would write to the freed actor: a sanitizer build reports it).
  engine.run_until(2.0);
  EXPECT_EQ(engine.live_timers(), 0u);
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(Actor, RecoverAllowsNewTimers) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.crash();
  actor.recover();
  actor.arm(1.0);
  engine.run();
  EXPECT_EQ(actor.fired, 1);
}

TEST(Actor, CancelledAfterDoesNotFire) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  const auto id = actor.arm_cancellable(1.0);
  actor.cancel_event(id);
  engine.run();
  EXPECT_EQ(actor.fired, 0);
}

TEST(Actor, AfterWhileCrashedIsIgnored) {
  sim::Engine engine;
  TestActor actor(engine, "a");
  actor.crash();
  actor.arm(1.0);
  engine.run();
  EXPECT_EQ(actor.fired, 0);
}

// --- Trace ----------------------------------------------------------------------

TEST(Trace, RecordsTimeAndKind) {
  sim::Engine engine;
  sim::Trace trace(engine);
  engine.schedule(2.0, [&] { trace.record("actor", "event", "detail"); });
  engine.run();
  ASSERT_EQ(trace.records().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.records()[0].time, 2.0);
  EXPECT_EQ(trace.records()[0].kind, "event");
  EXPECT_EQ(trace.records()[0].detail, "detail");
}

TEST(Trace, CountAndFilterByKind) {
  sim::Engine engine;
  sim::Trace trace(engine);
  trace.record("a", "x");
  trace.record("b", "y");
  trace.record("c", "x");
  EXPECT_EQ(trace.count("x"), 2u);
  EXPECT_EQ(trace.of_kind("y").size(), 1u);
  EXPECT_EQ(trace.count("z"), 0u);
}

TEST(Trace, FirstTimeHonoursFromBound) {
  sim::Engine engine;
  sim::Trace trace(engine);
  engine.schedule(1.0, [&] { trace.record("a", "k"); });
  engine.schedule(5.0, [&] { trace.record("a", "k"); });
  engine.run();
  EXPECT_DOUBLE_EQ(trace.first_time("k"), 1.0);
  EXPECT_DOUBLE_EQ(trace.first_time("k", 2.0), 5.0);
  EXPECT_LT(trace.first_time("missing"), 0.0);
}

TEST(Trace, RingBufferKeepsNewestRecords) {
  sim::Engine engine;
  sim::Trace trace(engine);
  trace.set_max_records(10);
  for (int i = 0; i < 100; ++i) {
    trace.record("a", "k", std::to_string(i));
  }
  // Amortized trimming: never more than 2x the cap retained, never fewer
  // than the cap, and the newest records always survive.
  EXPECT_GE(trace.records().size(), 10u);
  EXPECT_LT(trace.records().size(), 20u);
  EXPECT_EQ(trace.records().size() + trace.dropped(), 100u);
  EXPECT_EQ(trace.records().back().detail, "99");
}

TEST(Trace, SetMaxRecordsTrimsExisting) {
  sim::Engine engine;
  sim::Trace trace(engine);
  for (int i = 0; i < 8; ++i) trace.record("a", "k", std::to_string(i));
  trace.set_max_records(3);
  ASSERT_EQ(trace.records().size(), 3u);
  EXPECT_EQ(trace.records().front().detail, "5");
  EXPECT_EQ(trace.dropped(), 5u);
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, UnboundedByDefault) {
  sim::Engine engine;
  sim::Trace trace(engine);
  for (int i = 0; i < 5000; ++i) trace.record("a", "k");
  EXPECT_EQ(trace.records().size(), 5000u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, DumpContainsRecords) {
  sim::Engine engine;
  sim::Trace trace(engine);
  trace.record("actor1", "kind1", "detail1");
  const std::string dump = trace.dump();
  EXPECT_NE(dump.find("actor1"), std::string::npos);
  EXPECT_NE(dump.find("kind1"), std::string::npos);
}

}  // namespace
