// Actor base class: a named simulation participant with timer helpers.
//
// Actors own their pending timers; a crashed/destroyed actor's callbacks are
// guarded so late events never touch dead state (the lifetime token pattern).
// The token is a shared bool: after() wraps each one-shot in a closure that
// holds it, and every() hands it to the engine's timer table, which reads it
// before and after each tick. crash() and the destructor clear it; recover()
// makes a fresh one, so no old timer comes back, and the table's copy
// outlives a destroyed actor, so its timers end at their next due tick
// without touching it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "sim/engine.hpp"

namespace snooze::sim {

class Actor {
 public:
  Actor(Engine& engine, std::string name);
  virtual ~Actor();

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Engine& engine() const { return engine_; }
  [[nodiscard]] Time now() const { return engine_.now(); }

  /// True while the actor participates in the simulation; crash() clears it.
  [[nodiscard]] bool alive() const { return *alive_; }

  /// Take the actor out of the simulation: all pending timers are
  /// invalidated and future after()/every() calls are ignored.
  virtual void crash();

  /// Bring a crashed actor back (fresh lifetime token; no timers restored).
  virtual void recover();

 protected:
  /// Schedule a member callback `delay` seconds from now. The callback is
  /// dropped if the actor crashes or is destroyed in the meantime.
  EventId after(Time delay, std::function<void()> fn);

  /// Recurring timer with a fixed period, starting one period from now (an
  /// Engine::every timer). Ticks keep running until `fn` returns false or
  /// the actor crashes or is destroyed; after that the next due tick ends
  /// the timer without calling `fn`.
  void every(Time period, std::function<bool()> fn);

  /// Cancel a pending after() event.
  void cancel(EventId id);

 private:
  Engine& engine_;
  std::string name_;
  std::shared_ptr<bool> alive_;
};

}  // namespace snooze::sim
