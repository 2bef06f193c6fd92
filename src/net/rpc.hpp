// Request/response layer over the simulated network.
//
// Snooze components are "RESTful web services" in the paper; RpcEndpoint is
// the simulated equivalent: each component owns one endpoint that supports
// fire-and-forget sends, multicast, and correlated request/response calls
// with timeouts. Request handlers receive a Responder and may reply
// immediately or later (e.g. a Group Manager deferring a placement response
// until a suspended node has been woken up).
//
// The correlation header (call id, reply flag) rides the net::Envelope, so
// one-way messages and both RPC legs are the payload alone on the heap.
//
// Every call is a call group of one or more attempts (call() is a group
// with one attempt). Gray-failure hardening: a *slow* reply that arrives
// after its attempt's soft timeout but before the overall call gave up
// still wins — it cancels the scheduled retry instead of racing it.
// call_with_hedging() launches one backup attempt after a p99-derived delay
// (idempotent call sites only).
//
// Attempts and call groups live in two slabs whose ids pack a slot and a
// generation; the timers an endpoint schedules capture only (this, id), so
// std::function keeps them inline. Once the slabs have grown to the
// endpoint's peak of outstanding calls, a call allocates nothing here.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "sim/actor.hpp"

namespace snooze::net {

/// Capability to answer one specific request; copyable, may outlive the
/// handler invocation (deferred replies). Replying twice is a no-op at the
/// caller (the first reply wins; the second finds no pending call).
class Responder {
 public:
  /// A responder with no caller: respond() sends nothing. For local work that
  /// runs a request path on its own authority.
  Responder() = default;
  Responder(Network* network, Address self, Address to, std::uint64_t rpc_id,
            telemetry::SpanContext ctx = {})
      : network_(network), self_(self), to_(to), rpc_id_(rpc_id), ctx_(ctx) {}

  void respond(MsgPtr reply) const;

  /// Trace context of the request being answered (the rpc-attempt span).
  [[nodiscard]] const telemetry::SpanContext& ctx() const { return ctx_; }

 private:
  Network* network_ = nullptr;
  Address self_ = kNullAddress;
  Address to_ = kNullAddress;
  std::uint64_t rpc_id_ = 0;
  telemetry::SpanContext ctx_;
};

/// Attempt budget and backoff schedule for call_with_retries().
///
/// Retries use *decorrelated jitter* (next delay drawn uniformly from
/// [base_backoff, prev * 3], clamped to max_backoff): after a partition
/// heals, callers that timed out together fan out across the whole delay
/// range instead of re-sending in lockstep, so the recovering node is not
/// hit by a synchronized retry storm.
struct RetryPolicy {
  int max_attempts = 3;
  sim::Time base_backoff = 0.5;
  sim::Time max_backoff = 30.0;
  /// Overall deadline for the whole call_with_retries() sequence, measured
  /// from the first attempt: no retry is *started* at or past this budget
  /// (an attempt already in flight still runs to its own timeout).
  /// 0 = unbounded (attempts alone limit the sequence).
  sim::Time max_total = 0.0;

  /// Decorrelated-jitter schedule: delay after a failed attempt whose own
  /// backoff was `prev` (pass 0 for the first failure).
  [[nodiscard]] sim::Time next_backoff(sim::Time prev, util::Rng& rng) const;
};

/// Hedge pacing for call_with_hedging().
struct HedgePolicy {
  /// Fixed delay before the backup attempt; 0 = derive from the observed
  /// p99 latency to that destination (clamped to [min_delay, max_delay]).
  sim::Time hedge_delay = 0.0;
  sim::Time min_delay = 0.02;
  sim::Time max_delay = 2.0;
};

class RpcEndpoint final : public Endpoint {
 public:
  /// Handler for one-way messages.
  using MessageHandler = std::function<void(const Envelope&)>;
  /// Handler for requests; reply now or keep the Responder for later.
  using RequestHandler = std::function<void(const Envelope&, Responder)>;
  /// Completion callback for call(): ok=false means timeout (reply null).
  using ReplyCallback = std::function<void(bool ok, const MsgPtr& reply)>;

  RpcEndpoint(sim::Engine& engine, Network& network, Address address, std::string name);
  /// Cancels the endpoint's pending timers, so the engine must outlive it.
  ~RpcEndpoint() override;

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  [[nodiscard]] Address address() const { return address_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const { return network_; }

  void set_message_handler(MessageHandler handler) { on_oneway_ = std::move(handler); }
  void set_request_handler(RequestHandler handler) { on_request_ = std::move(handler); }

  /// Fire-and-forget unicast.
  void send(Address to, MsgPtr msg);

  /// Fire-and-forget multicast to a heartbeat group.
  void multicast(GroupId group, MsgPtr msg);

  /// Request/response with timeout: a call group with one attempt. The
  /// callback always fires exactly once.
  void call(Address to, MsgPtr request, sim::Time timeout, ReplyCallback cb);

  /// call() with automatic re-send on timeout: up to policy.max_attempts
  /// tries separated by decorrelated-jitter backoff (deterministic per
  /// engine seed), the whole sequence capped by policy.max_total. The
  /// callback fires exactly once, with the first successful reply or the
  /// final timeout. Replies — including explicit rejections — never trigger
  /// a retry; only transport-level timeouts do, so request handlers must
  /// stay idempotent under duplicated requests. A reply that arrives after
  /// its own attempt timed out but before the overall call resolved still
  /// completes the call and cancels the pending retry (slow != lost).
  void call_with_retries(Address to, MsgPtr request, sim::Time timeout,
                         RetryPolicy policy, ReplyCallback cb);

  /// Tail-latency hedging: send the request, and if no reply lands within
  /// the hedge delay, send one backup copy of the same request to the same
  /// destination. First reply wins; the caller sees exactly one callback.
  /// Only valid for idempotent requests (probes, monitor pulls, summary
  /// fetches) — the destination may execute the request twice.
  void call_with_hedging(Address to, MsgPtr request, sim::Time timeout,
                         HedgePolicy policy, ReplyCallback cb);

  /// Cumulative seconds this endpoint's destinations spent "broken": from
  /// the 5th consecutive timeout to the next reply from that destination (or
  /// until this process goes down).
  [[nodiscard]] double breaker_open_seconds() const;

  /// Simulate a process crash: detach from the network and drop all pending
  /// calls *without* firing their callbacks (the process is gone).
  void go_down();
  /// Reattach after recovery.
  void go_up();
  [[nodiscard]] bool up() const { return up_; }

  void on_message(const Envelope& env) override;

 private:
  /// Entries addressed by an id that packs (slot + 1) << 32 | generation, as
  /// sim::EventId does. Releasing an entry moves its slot's generation, so an
  /// id that outlives its entry (a second reply, the timer of a resolved
  /// call) finds nothing, even once the slot serves a new entry. No id is 0,
  /// the Envelope's mark of a one-way message.
  template <typename T>
  class Slab {
   public:
    /// Claim a default-constructed entry; returns its id.
    std::uint64_t acquire() {
      std::uint32_t slot = free_;
      if (slot != kNoSlot) {
        free_ = slots_[slot].next_free;
      } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
      }
      slots_[slot].live = true;
      return id_of(slot);
    }

    /// The live entry `id` names; nullptr once it was released.
    T* find(std::uint64_t id) {
      const std::uint64_t hi = id >> 32;
      if (hi == 0 || hi > slots_.size()) return nullptr;
      Slot& s = slots_[hi - 1];
      return s.live && s.generation == static_cast<std::uint32_t>(id) ? &s.value
                                                                       : nullptr;
    }

    /// Destroy the entry `id` names (it must be live); its id goes stale.
    void release(std::uint64_t id) {
      const auto slot = static_cast<std::uint32_t>((id >> 32) - 1);
      Slot& s = slots_[slot];
      s.value = T{};
      s.live = false;
      ++s.generation;
      s.next_free = free_;
      free_ = slot;
    }

    /// Call f(entry) for every live entry.
    template <typename F>
    void for_each(F&& f) {
      for (Slot& s : slots_) {
        if (s.live) f(s.value);
      }
    }

    /// Release every live entry.
    void clear() {
      for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot].live) release(id_of(slot));
      }
    }

   private:
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
    struct Slot {
      T value{};
      std::uint32_t generation = 0;
      std::uint32_t next_free = kNoSlot;
      bool live = false;
    };
    [[nodiscard]] std::uint64_t id_of(std::uint32_t slot) const {
      return (std::uint64_t{slot} + 1) << 32 | slots_[slot].generation;
    }

    std::vector<Slot> slots_;
    std::uint32_t free_ = kNoSlot;
  };

  /// One attempt of a call group. Every attempt stays live until its group
  /// resolves, so the group reaches all of them through next_attempt.
  struct PendingCall {
    sim::EventId timeout_event = 0;
    telemetry::SpanContext span;  ///< per-attempt rpc span (invalid if untraced)
    sim::Time started = 0.0;
    Address to = kNullAddress;
    std::uint64_t group = 0;         ///< the call group this attempt belongs to
    std::uint64_t next_attempt = 0;  ///< the group's next attempt; 0 ends the list
    bool timed_out = false;  ///< soft timeout fired, reply may still win
  };

  /// One logical call: its request, callback and retry or hedge schedule.
  /// Completion (first reply or final timeout) fires the callback exactly
  /// once and reaps every attempt.
  struct CallGroup {
    std::uint64_t id = 0;
    ReplyCallback cb;
    MsgPtr request;
    Address to = kNullAddress;
    sim::Time timeout = 0.0;  ///< soft timeout of the next attempt sent
    RetryPolicy policy;       ///< retry groups: attempt budget and backoff
    sim::Time backoff = 0.0;  ///< last retry backoff (0 before the first)
    sim::Time deadline = -1.0;  ///< no retry starts at or past it; < 0: none
    std::uint64_t first_attempt = 0;  ///< head of the attempt list (sending order)
    std::uint64_t last_attempt = 0;   ///< its tail
    int attempts = 0;                 ///< attempts sent
    sim::EventId pending_event = 0;   ///< scheduled retry / hedge launch
    bool hedged = false;
  };

  /// Latency history and timeout streak for one destination.
  struct DestStats {
    static constexpr std::size_t kRing = 32;
    static constexpr int kBrokenStreak = 5;  ///< timeouts that open a streak
    std::array<float, kRing> latency{};
    std::size_t count = 0;  ///< total samples (ring index = count % kRing)
    int consecutive_timeouts = 0;
    bool open = false;  ///< on a streak of >= kBrokenStreak timeouts
    sim::Time opened_at = 0.0;
  };

  /// Handles of the rpc.* metrics (looked up once, see MetricRef).
  struct Metrics {
    telemetry::CounterRef<"rpc.calls"> calls;
    telemetry::CounterRef<"rpc.timeouts"> timeouts;
    telemetry::CounterRef<"rpc.retries"> retries;
    telemetry::CounterRef<"rpc.deadline_exceeded"> deadline_exceeded;
    telemetry::CounterRef<"rpc.hedges"> hedges;
    telemetry::CounterRef<"rpc.hedges_won"> hedges_won;
    telemetry::CounterRef<"rpc.late_replies_won"> late_replies_won;
    telemetry::CounterRef<"rpc.breaker_opened"> breaker_opened;
    telemetry::CounterRef<"rpc.breaker_closed"> breaker_closed;
    telemetry::HistogramRef<"rpc.latency"> latency;
  };

  CallGroup& open_group(Address to, MsgPtr request, sim::Time timeout, ReplyCallback cb);
  /// Send the group's next attempt. Its soft timeout leaves the attempt
  /// alive, so a late reply can still win the group.
  void send_attempt(CallGroup& group);
  /// Soft timeout of attempt `id`: schedule the retry, or fail the group.
  void on_attempt_timeout(std::uint64_t id);
  /// Fire the group's scheduled retry or hedge.
  void launch_next_attempt(std::uint64_t group_id);
  /// Resolve a call group exactly once and reap its attempts.
  void complete_group(std::uint64_t group_id, bool ok, const MsgPtr& reply,
                      std::uint64_t winner);
  /// Fail the group if every attempt timed out and nothing else is scheduled.
  void finish_if_exhausted(std::uint64_t group_id);

  [[nodiscard]] sim::Time hedge_delay(Address to, const HedgePolicy& policy) const;
  void note_reply(Address to, sim::Time latency);
  void note_timeout(Address to);

  sim::Engine& engine_;
  Network& network_;
  Address address_;
  std::string name_;
  bool up_ = true;
  Slab<PendingCall> pending_;
  Slab<CallGroup> groups_;
  std::unordered_map<Address, DestStats> dest_stats_;
  double breaker_open_s_ = 0.0;
  std::size_t open_streaks_ = 0;  ///< destinations with `open` set
  Metrics metrics_;
  MessageHandler on_oneway_;
  RequestHandler on_request_;
};

}  // namespace snooze::net
