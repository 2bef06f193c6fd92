#include "net/rpc.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

namespace snooze::net {

sim::Time RetryPolicy::backoff(int attempt, util::Rng& rng) const {
  sim::Time delay = base_backoff;
  for (int i = 1; i < attempt; ++i) delay *= multiplier;
  delay = std::min(delay, max_backoff);
  if (jitter > 0.0) delay += rng.uniform(0.0, jitter * delay);
  return delay;
}

sim::Time RetryPolicy::next_backoff(sim::Time prev, util::Rng& rng) const {
  // AWS-style decorrelated jitter: sleep = min(cap, uniform(base, prev * 3)).
  // The upper bound grows from the *previous actual sleep*, so consecutive
  // delays decorrelate instead of marching up a shared exponential ladder.
  const sim::Time upper = std::max(base_backoff, prev * 3.0);
  sim::Time delay = upper <= base_backoff ? base_backoff
                                          : rng.uniform(base_backoff, upper);
  return std::min(delay, max_backoff);
}

void Responder::respond(MsgPtr reply) const {
  assert(reply != nullptr);
  if (network_ == nullptr) return;  // no caller to answer
  Envelope env{self_, to_, std::move(reply), ctx_};
  env.rpc_id = rpc_id_;
  env.is_reply = true;
  // Send through the network directly: if the responding node has crashed in
  // the meantime the network blackholes it (sender is in the down set).
  network_->send(std::move(env));
}

RpcEndpoint::RpcEndpoint(sim::Engine& engine, Network& network, Address address,
                         std::string name)
    : engine_(engine), network_(network), address_(address), name_(std::move(name)) {
  network_.attach(address_, this);
}

RpcEndpoint::~RpcEndpoint() {
  // The timers capture `this`: none may fire once the endpoint is gone.
  pending_.for_each([this](PendingCall& attempt) { engine_.cancel(attempt.timeout_event); });
  groups_.for_each([this](CallGroup& group) { engine_.cancel(group.pending_event); });
  network_.detach(address_);
}

void RpcEndpoint::send(Address to, MsgPtr msg) {
  if (!up_) return;
  network_.send(address_, to, std::move(msg));
}

void RpcEndpoint::multicast(GroupId group, MsgPtr msg) {
  if (!up_) return;
  network_.multicast(address_, group, msg);
}

void RpcEndpoint::call(Address to, MsgPtr request, sim::Time timeout, ReplyCallback cb) {
  call_with_retries(to, std::move(request), timeout, RetryPolicy{.max_attempts = 1},
                    std::move(cb));
}

// ---------------------------------------------------------------------------
// Call groups (single calls, retries, hedges)
// ---------------------------------------------------------------------------

RpcEndpoint::CallGroup& RpcEndpoint::open_group(Address to, MsgPtr request,
                                                sim::Time timeout, ReplyCallback cb) {
  const std::uint64_t id = groups_.acquire();
  CallGroup& group = *groups_.find(id);
  group.id = id;
  group.cb = std::move(cb);
  group.request = std::move(request);
  group.to = to;
  group.timeout = timeout;
  return group;
}

void RpcEndpoint::send_attempt(CallGroup& group) {
  const std::uint64_t id = pending_.acquire();
  if (group.first_attempt == 0) {
    group.first_attempt = id;
  } else {
    pending_.find(group.last_attempt)->next_attempt = id;
  }
  group.last_attempt = id;
  ++group.attempts;
  const Message& request = *group.request;

  // One rpc span per attempt, parented under the request's context — a
  // retried RPC shows up as sibling attempt spans, the timed-out ones marked
  // status=timeout. Untraced requests skip building the span name.
  telemetry::Telemetry* tel = network_.telemetry();
  telemetry::count(tel, metrics_.calls);
  PendingCall& pending = *pending_.find(id);
  if (request.ctx.valid()) {
    pending.span = telemetry::begin_span(tel, request.ctx,
                                         "rpc:" + std::string(request.type()), name_);
  }
  pending.started = engine_.now();
  pending.to = group.to;
  pending.group = group.id;
  pending.timeout_event =
      engine_.schedule(group.timeout, [this, id] { on_attempt_timeout(id); });
  // The request travels under the attempt span; the fencing token rides the
  // envelope.
  Envelope env{address_, group.to, group.request,
               pending.span.valid() ? pending.span : request.ctx, request.epoch, id};
  network_.send(std::move(env));
}

void RpcEndpoint::on_attempt_timeout(std::uint64_t id) {
  PendingCall* attempt = pending_.find(id);
  if (attempt == nullptr) return;
  // Soft timeout: the attempt no longer paces the call, but it stays alive —
  // a slow (not lost) reply can still win the group until the group itself
  // resolves.
  attempt->timed_out = true;
  attempt->timeout_event = 0;
  telemetry::Telemetry* tel = network_.telemetry();
  telemetry::count(tel, metrics_.timeouts);
  telemetry::end_span(tel, attempt->span, "timeout");
  attempt->span = {};
  note_timeout(attempt->to);

  CallGroup* group = groups_.find(attempt->group);
  if (group == nullptr) return;
  if (group->hedged) {
    finish_if_exhausted(group->id);
    return;
  }
  if (group->attempts >= group->policy.max_attempts) {
    complete_group(group->id, false, nullptr, 0);
    return;
  }
  telemetry::count(tel, metrics_.retries);
  const sim::Time delay = group->policy.next_backoff(group->backoff, engine_.rng());
  if (group->deadline >= 0.0 && engine_.now() + delay >= group->deadline) {
    // The overall budget is spent before the next attempt could start:
    // report the failure now rather than retrying past the deadline.
    telemetry::count(tel, metrics_.deadline_exceeded);
    complete_group(group->id, false, nullptr, 0);
    return;
  }
  group->backoff = delay;
  group->pending_event =
      engine_.schedule(delay, [this, id = group->id] { launch_next_attempt(id); });
}

void RpcEndpoint::launch_next_attempt(std::uint64_t group_id) {
  CallGroup* group = groups_.find(group_id);
  if (group == nullptr) return;  // a late reply already won
  group->pending_event = 0;
  if (group->hedged) telemetry::count(network_.telemetry(), metrics_.hedges);
  send_attempt(*group);
}

void RpcEndpoint::complete_group(std::uint64_t group_id, bool ok, const MsgPtr& reply,
                                 std::uint64_t winner) {
  CallGroup* group = groups_.find(group_id);
  if (group == nullptr) return;
  engine_.cancel(group->pending_event);
  telemetry::Telemetry* tel = network_.telemetry();
  for (std::uint64_t id = group->first_attempt; id != 0;) {
    PendingCall& attempt = *pending_.find(id);
    engine_.cancel(attempt.timeout_event);
    telemetry::end_span(tel, attempt.span, ok ? "superseded" : "failed");
    const std::uint64_t next = attempt.next_attempt;
    pending_.release(id);
    id = next;
  }
  if (ok && group->hedged && winner != group->first_attempt) {
    telemetry::count(tel, metrics_.hedges_won);
  }
  // Release the group before the callback runs: it may start new calls.
  ReplyCallback cb = std::move(group->cb);
  groups_.release(group_id);
  cb(ok, reply);
}

void RpcEndpoint::finish_if_exhausted(std::uint64_t group_id) {
  const CallGroup* group = groups_.find(group_id);
  if (group == nullptr) return;
  if (group->pending_event != 0) return;  // a retry/hedge is still scheduled
  for (std::uint64_t id = group->first_attempt; id != 0;) {
    const PendingCall& attempt = *pending_.find(id);
    if (!attempt.timed_out) return;  // still in flight
    id = attempt.next_attempt;
  }
  complete_group(group_id, false, nullptr, 0);
}

void RpcEndpoint::call_with_retries(Address to, MsgPtr request, sim::Time timeout,
                                    RetryPolicy policy, ReplyCallback cb) {
  assert(policy.max_attempts >= 1);
  if (!up_) return;
  CallGroup& group = open_group(to, std::move(request), timeout, std::move(cb));
  group.policy = policy;
  if (policy.max_total > 0.0) group.deadline = engine_.now() + policy.max_total;
  send_attempt(group);
}

void RpcEndpoint::call_with_hedging(Address to, MsgPtr request, sim::Time timeout,
                                    HedgePolicy policy, ReplyCallback cb) {
  if (!up_) return;
  CallGroup& group = open_group(to, std::move(request), timeout, std::move(cb));
  group.hedged = true;
  send_attempt(group);
  const sim::Time delay = hedge_delay(to, policy);
  if (delay >= timeout) return;  // no room left for a useful backup attempt
  group.timeout = timeout - delay;  // the backup gives up with the primary
  group.pending_event =
      engine_.schedule(delay, [this, id = group.id] { launch_next_attempt(id); });
}

sim::Time RpcEndpoint::hedge_delay(Address to, const HedgePolicy& policy) const {
  if (policy.hedge_delay > 0.0) return policy.hedge_delay;
  sim::Time p99 = policy.min_delay;
  const auto it = dest_stats_.find(to);
  if (it != dest_stats_.end() && it->second.count > 0) {
    // The p99 is the element a sort of the ring would put at
    // floor(0.99 * (n - 1)). For n <= 100 that rank is n - 2 (0 for n = 1):
    // the second-largest sample, which equals the largest when it repeats,
    // or the only sample. One pass finds it.
    static_assert(DestStats::kRing <= 100);
    const std::size_t n = std::min(it->second.count, DestStats::kRing);
    const std::array<float, DestStats::kRing>& ring = it->second.latency;
    float first = ring[0];
    float second = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 1; i < n; ++i) {
      if (ring[i] > first) {
        second = first;
        first = ring[i];
      } else if (ring[i] > second) {
        second = ring[i];
      }
    }
    p99 = n == 1 ? first : second;
  }
  return std::clamp(p99, policy.min_delay, policy.max_delay);
}

// ---------------------------------------------------------------------------
// Per-destination latency history + timeout streaks
// ---------------------------------------------------------------------------

void RpcEndpoint::note_reply(Address to, sim::Time latency) {
  DestStats& d = dest_stats_[to];
  d.latency[d.count % DestStats::kRing] = static_cast<float>(latency);
  ++d.count;
  d.consecutive_timeouts = 0;
  if (d.open) {
    // Any reply proves the destination back: end the streak and bank the
    // time it spent broken.
    breaker_open_s_ += engine_.now() - d.opened_at;
    d.open = false;
    --open_streaks_;
    telemetry::count(network_.telemetry(), metrics_.breaker_closed);
    telemetry::gauge_set(network_.telemetry(), "rpc.breaker_open_s", breaker_open_s_);
  }
}

void RpcEndpoint::note_timeout(Address to) {
  DestStats& d = dest_stats_[to];
  if (++d.consecutive_timeouts >= DestStats::kBrokenStreak && !d.open) {
    d.open = true;
    d.opened_at = engine_.now();
    ++open_streaks_;
    telemetry::count(network_.telemetry(), metrics_.breaker_opened);
  }
}

double RpcEndpoint::breaker_open_seconds() const {
  if (open_streaks_ == 0) return breaker_open_s_;  // the sum has no other term
  double total = breaker_open_s_;
  for (const auto& [addr, d] : dest_stats_) {
    if (d.open) total += engine_.now() - d.opened_at;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Crash / recovery
// ---------------------------------------------------------------------------

void RpcEndpoint::go_down() {
  if (!up_) return;
  up_ = false;
  network_.set_node_up(address_, false);
  // A crashed process loses its in-flight calls silently (spans are closed
  // so the trace shows where the caller died mid-call).
  pending_.for_each([this](PendingCall& attempt) {
    engine_.cancel(attempt.timeout_event);
    telemetry::end_span(network_.telemetry(), attempt.span, "caller_down");
  });
  pending_.clear();
  groups_.for_each([this](CallGroup& group) { engine_.cancel(group.pending_event); });
  groups_.clear();
  // Bank the time of streaks that die open; the restarted process starts
  // with fresh latency rings and no streaks.
  for (auto& [addr, d] : dest_stats_) {
    if (d.open) breaker_open_s_ += engine_.now() - d.opened_at;
  }
  dest_stats_.clear();
  open_streaks_ = 0;
}

void RpcEndpoint::go_up() {
  if (up_) return;
  up_ = true;
  network_.set_node_up(address_, true);
}

void RpcEndpoint::on_message(const Envelope& env) {
  if (!up_) return;
  if (env.rpc_id == 0) {
    if (on_oneway_) on_oneway_(env);
    return;
  }
  if (!env.is_reply) {
    // The envelope carries the rpc-attempt span, so handler spans parent
    // under the attempt that delivered them, not the sender's context.
    if (on_request_) {
      on_request_(env, Responder(&network_, address_, env.from, env.rpc_id, env.ctx));
    }
    return;
  }
  PendingCall* attempt = pending_.find(env.rpc_id);
  if (attempt == nullptr) return;  // reply after the call fully resolved
  engine_.cancel(attempt->timeout_event);
  attempt->timeout_event = 0;
  telemetry::Telemetry* tel = network_.telemetry();
  const sim::Time latency = engine_.now() - attempt->started;
  telemetry::observe(tel, metrics_.latency, latency);
  note_reply(attempt->to, latency);
  // The first reply — even one arriving after its own soft timeout —
  // resolves the whole group and cancels any scheduled retry or hedge.
  if (attempt->timed_out) telemetry::count(tel, metrics_.late_replies_won);
  telemetry::end_span(tel, attempt->span, "ok");
  attempt->span = {};
  complete_group(attempt->group, true, env.payload, env.rpc_id);
}

}  // namespace snooze::net
