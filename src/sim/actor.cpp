#include "sim/actor.hpp"

#include <utility>

namespace snooze::sim {

Actor::Actor(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)), alive_(std::make_shared<bool>(true)) {}

Actor::~Actor() { *alive_ = false; }

void Actor::crash() { *alive_ = false; }

void Actor::recover() {
  if (*alive_) return;
  alive_ = std::make_shared<bool>(true);
}

EventId Actor::after(Time delay, std::function<void()> fn) {
  if (!*alive_) return 0;
  auto token = alive_;
  return engine_.schedule(delay, [token, fn = std::move(fn)] {
    if (*token) fn();
  });
}

void Actor::every(Time period, std::function<bool()> fn) {
  if (!*alive_) return;
  // fn may crash the actor: the token is checked on both sides of the call.
  engine_.every(period, [token = alive_, fn = std::move(fn)] {
    return *token && fn() && *token;
  });
}

void Actor::cancel(EventId id) { engine_.cancel(id); }

}  // namespace snooze::sim
