#include "net/rpc.hpp"

#include <algorithm>
#include <array>
#include <cassert>


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
    : engine_(engine),
      network_(network),
      address_(address),
      name_(std::move(name)),
      alive_(std::make_shared<bool>(true)) {
  network_.attach(address_, this);
}

RpcEndpoint::~RpcEndpoint() {
  *alive_ = false;
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
  const std::uint64_t id = next_group_id_++;
  CallGroup& group = groups_[id];
  group.id = id;
  group.cb = std::move(cb);
  group.request = std::move(request);
  group.to = to;
  group.timeout = timeout;
  return group;
}

void RpcEndpoint::send_attempt(CallGroup& group) {
  const std::uint64_t id = next_rpc_id_++;
  group.attempts.push_back(id);
  const Message& request = *group.request;

  // One rpc span per attempt, parented under the request's context — a
  // retried RPC shows up as sibling attempt spans, the timed-out ones marked
  // status=timeout.
  telemetry::Telemetry* tel = network_.telemetry();
  telemetry::count(tel, "rpc.calls");
  PendingCall& pending = pending_[id];
  pending.span = telemetry::begin_span(tel, request.ctx,
                                       "rpc:" + std::string(request.type()), name_);
  pending.started = engine_.now();
  pending.to = group.to;
  pending.group = group.id;
  pending.timeout_event = engine_.schedule(group.timeout, [this, token = alive_, id] {
    if (*token) on_attempt_timeout(id);
  });
  // The request travels under the attempt span; the fencing token rides the
  // envelope.
  Envelope env{address_, group.to, group.request,
               pending.span.valid() ? pending.span : request.ctx, request.epoch, id};
  network_.send(std::move(env));
}

void RpcEndpoint::on_attempt_timeout(std::uint64_t id) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  // Soft timeout: the attempt no longer paces the call, but its pending
  // entry stays alive — a slow (not lost) reply can still win the group
  // until the group itself resolves.
  PendingCall& attempt = it->second;
  attempt.timed_out = true;
  attempt.timeout_event = 0;
  telemetry::Telemetry* tel = network_.telemetry();
  telemetry::count(tel, "rpc.timeouts");
  telemetry::end_span(tel, attempt.span, "timeout");
  attempt.span = {};
  note_timeout(attempt.to);

  const auto git = groups_.find(attempt.group);
  if (git == groups_.end()) return;
  CallGroup& group = git->second;
  if (group.hedged) {
    finish_if_exhausted(group.id);
    return;
  }
  if (static_cast<int>(group.attempts.size()) >= group.policy.max_attempts) {
    complete_group(group.id, false, nullptr, 0);
    return;
  }
  telemetry::count(tel, "rpc.retries");
  const sim::Time delay = group.policy.next_backoff(group.backoff, engine_.rng());
  if (group.deadline >= 0.0 && engine_.now() + delay >= group.deadline) {
    // The overall budget is spent before the next attempt could start:
    // report the failure now rather than retrying past the deadline.
    telemetry::count(tel, "rpc.deadline_exceeded");
    complete_group(group.id, false, nullptr, 0);
    return;
  }
  group.backoff = delay;
  group.pending_event = engine_.schedule(delay, [this, token = alive_, id = group.id] {
    if (*token) launch_next_attempt(id);
  });
}

void RpcEndpoint::launch_next_attempt(std::uint64_t group_id) {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return;  // a late reply already won
  it->second.pending_event = 0;
  if (it->second.hedged) telemetry::count(network_.telemetry(), "rpc.hedges");
  send_attempt(it->second);
}

void RpcEndpoint::complete_group(std::uint64_t group_id, bool ok, const MsgPtr& reply,
                                 std::uint64_t winner) {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return;
  CallGroup group = std::move(it->second);
  groups_.erase(it);
  engine_.cancel(group.pending_event);
  telemetry::Telemetry* tel = network_.telemetry();
  for (const std::uint64_t id : group.attempts) {
    const auto p = pending_.find(id);
    if (p == pending_.end()) continue;
    engine_.cancel(p->second.timeout_event);
    telemetry::end_span(tel, p->second.span, ok ? "superseded" : "failed");
    pending_.erase(p);
  }
  if (ok && group.hedged && winner != group.attempts.front()) {
    telemetry::count(tel, "rpc.hedges_won");
  }
  group.cb(ok, reply);
}

void RpcEndpoint::finish_if_exhausted(std::uint64_t group_id) {
  const auto it = groups_.find(group_id);
  if (it == groups_.end()) return;
  if (it->second.pending_event != 0) return;  // a retry/hedge is still scheduled
  for (const std::uint64_t id : it->second.attempts) {
    const auto p = pending_.find(id);
    if (p != pending_.end() && !p->second.timed_out) return;  // still in flight
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
  group.pending_event = engine_.schedule(delay, [this, token = alive_, id = group.id] {
    if (*token) launch_next_attempt(id);
  });
}

sim::Time RpcEndpoint::hedge_delay(Address to, const HedgePolicy& policy) const {
  if (policy.hedge_delay > 0.0) return policy.hedge_delay;
  sim::Time p99 = policy.min_delay;
  const auto it = dest_stats_.find(to);
  if (it != dest_stats_.end() && it->second.count > 0) {
    // The p99 is the element a sort of the ring would put at
    // floor(0.99 * (n - 1)); selecting it needs no full sort.
    const std::size_t n = std::min(it->second.count, DestStats::kRing);
    std::array<float, DestStats::kRing> ring{};
    std::copy_n(it->second.latency.begin(), n, ring.begin());
    const auto rank = static_cast<std::ptrdiff_t>(0.99 * static_cast<double>(n - 1));
    std::nth_element(ring.begin(), ring.begin() + rank,
                     ring.begin() + static_cast<std::ptrdiff_t>(n));
    p99 = ring[static_cast<std::size_t>(rank)];
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
    telemetry::count(network_.telemetry(), "rpc.breaker_closed");
    telemetry::gauge_set(network_.telemetry(), "rpc.breaker_open_s", breaker_open_s_);
  }
}

void RpcEndpoint::note_timeout(Address to) {
  DestStats& d = dest_stats_[to];
  if (++d.consecutive_timeouts >= DestStats::kBrokenStreak && !d.open) {
    d.open = true;
    d.opened_at = engine_.now();
    telemetry::count(network_.telemetry(), "rpc.breaker_opened");
  }
}

double RpcEndpoint::breaker_open_seconds() const {
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
  for (auto& [id, pending] : pending_) {
    engine_.cancel(pending.timeout_event);
    telemetry::end_span(network_.telemetry(), pending.span, "caller_down");
  }
  pending_.clear();
  for (auto& [id, group] : groups_) engine_.cancel(group.pending_event);
  groups_.clear();
  // Bank the time of streaks that die open; the restarted process starts
  // with fresh latency rings and no streaks.
  for (auto& [addr, d] : dest_stats_) {
    if (d.open) breaker_open_s_ += engine_.now() - d.opened_at;
  }
  dest_stats_.clear();
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
  const auto it = pending_.find(env.rpc_id);
  if (it == pending_.end()) return;  // reply after the call fully resolved
  engine_.cancel(it->second.timeout_event);
  telemetry::Telemetry* tel = network_.telemetry();
  const sim::Time latency = engine_.now() - it->second.started;
  telemetry::observe(tel, "rpc.latency", latency);
  note_reply(it->second.to, latency);
  // The first reply — even one arriving after its own soft timeout —
  // resolves the whole group and cancels any scheduled retry or hedge.
  const std::uint64_t group_id = it->second.group;
  if (it->second.timed_out) telemetry::count(tel, "rpc.late_replies_won");
  telemetry::end_span(tel, it->second.span, "ok");
  pending_.erase(it);
  complete_group(group_id, true, env.payload, env.rpc_id);
}

}  // namespace snooze::net
