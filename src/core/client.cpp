#include "core/client.hpp"

#include <algorithm>

namespace snooze::core {

namespace {
/// Deadline of one submit attempt against the GL. Deliberately much tighter
/// than the GL's own worst-case dispatch: when it trips, the client
/// re-discovers and re-submits, and the GL's idempotent submission book
/// (keyed by VM id) turns the re-send into a replay, never a second
/// instance. Bounds client-visible failover latency to roughly one round.
constexpr sim::Time kSubmitRpcTimeout = 10.0;

/// The pause between whole discovery+submit rounds (round_backoff()).
constexpr sim::Time kRoundBackoff = 0.5;
constexpr double kRoundBackoffGrowth = 2.0;
constexpr sim::Time kMaxRoundBackoff = 8.0;
constexpr double kRoundJitter = 0.5;
}  // namespace

Client::Client(sim::Engine& engine, net::Network& network,
               std::vector<net::Address> entry_points, std::string name,
               sim::Trace* trace)
    : sim::Actor(engine, std::move(name)),
      endpoint_(engine, network, network.allocate_address(), Actor::name()),
      entry_points_(std::move(entry_points)),
      trace_(trace) {}

void Client::discover_gl(std::size_t ep_index, telemetry::SpanContext root,
                         std::function<void(net::Address)> cb) {
  if (entry_points_.empty() || ep_index >= entry_points_.size()) {
    cb(net::kNullAddress);
    return;
  }
  const net::Address ep = entry_points_[(next_ep_ + ep_index) % entry_points_.size()];
  auto query = std::make_shared<GlQueryRequest>();
  query->ctx = root;
  endpoint_.call(ep, std::move(query), kRpcTimeout,
                 [this, ep_index, root,
                  cb = std::move(cb)](bool ok, const net::MsgPtr& reply) {
    const auto* resp = ok ? net::msg_cast<GlQueryResponse>(reply) : nullptr;
    if (resp != nullptr && resp->ok) {
      cb(resp->gl);
      return;
    }
    discover_gl(ep_index + 1, root, cb);  // try the next replicated EP
  });
}

sim::Time Client::round_backoff(int round, util::Rng& rng) {
  sim::Time delay = kRoundBackoff;
  for (int i = 1; i < round; ++i) delay *= kRoundBackoffGrowth;
  delay = std::min(delay, kMaxRoundBackoff);
  return delay + rng.uniform(0.0, kRoundJitter * delay);
}

void Client::submit(const VmDescriptor& vm, SubmitCb cb) {
  telemetry::count(tel(), "client.submissions");
  // Root of the submission's span tree: every hop this request takes
  // (EP query, GL dispatch, GM placement, LC start, each rpc attempt)
  // parents under this context.
  telemetry::SpanContext root;
  if (auto* t = tel()) {
    root = t->spans().begin(t->spans().new_trace(), 0, "client.submit", name(),
                            "vm=" + std::to_string(vm.id));
  }
  attempt(vm, now(), max_attempts_, root, std::move(cb));
}

void Client::attempt(VmDescriptor vm, sim::Time started, int attempts_left,
                     telemetry::SpanContext root, SubmitCb cb) {
  if (attempts_left <= 0) {
    telemetry::count(tel(), "client.failures");
    telemetry::end_span(tel(), root, "failed");
    if (trace_) trace_->record(name(), "client.submit_failed");
    if (cb) cb(false, net::kNullAddress, now() - started);
    return;
  }
  auto go = [this, vm, started, attempts_left, root, cb](net::Address gl) mutable {
    if (gl == net::kNullAddress) {
      // No GL known anywhere yet: back off and retry.
      after(round_backoff(max_attempts_ - attempts_left + 1, engine().rng()),
            [this, vm, started, attempts_left, root, cb]() mutable {
        attempt(std::move(vm), started, attempts_left - 1, root, std::move(cb));
      });
      return;
    }
    cached_gl_ = gl;
    auto req = std::make_shared<SubmitVmRequest>();
    req->vm = vm;
    req->ctx = root;
    // Transient loss against a live GL is absorbed here (the GL dedups by VM
    // id); only after retries exhaust do we fall back to re-discovery.
    endpoint_.call_with_retries(
        gl, req, kSubmitRpcTimeout, submit_policy_,
        [this, vm, started, attempts_left, root,
         cb](bool ok, const net::MsgPtr& reply) mutable {
      const auto* resp = ok ? net::msg_cast<SubmitVmResponse>(reply) : nullptr;
      if (resp != nullptr && resp->ok) {
        const sim::Time latency = now() - started;
        telemetry::count(tel(), "client.successes");
        telemetry::observe(tel(), "client.submit_latency", latency, root,
                           now());
        telemetry::end_span(tel(), root, "ok");
        if (cb) cb(true, resp->lc, latency);
        return;
      }
      // Submission failed (GL gone, no capacity, ...): re-discover + retry.
      cached_gl_ = net::kNullAddress;
      ++next_ep_;
      after(round_backoff(max_attempts_ - attempts_left + 1, engine().rng()),
            [this, vm, started, attempts_left, root, cb]() mutable {
        attempt(std::move(vm), started, attempts_left - 1, root, std::move(cb));
      });
    });
  };
  if (cached_gl_ != net::kNullAddress) {
    go(cached_gl_);
  } else {
    discover_gl(0, root, std::move(go));
  }
}

void Client::submit_all(std::vector<VmDescriptor> vms, sim::Time inter_arrival,
                        SubmitCb cb) {
  for (std::size_t i = 0; i < vms.size(); ++i) {
    after(inter_arrival * static_cast<double>(i),
          [this, vm = vms[i], cb] { submit(vm, cb); });
  }
}

}  // namespace snooze::core
