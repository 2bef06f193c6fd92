#include "core/entry_point.hpp"

#include "telemetry/telemetry.hpp"

namespace snooze::core {

EntryPoint::EntryPoint(sim::Engine& engine, net::Network& network,
                       net::GroupId gl_heartbeat_group, std::string name,
                       sim::Trace* trace)
    : sim::Actor(engine, std::move(name)),
      endpoint_(engine, network, network.allocate_address(), Actor::name()),
      gl_group_(gl_heartbeat_group),
      trace_(trace) {
  endpoint_.set_message_handler([this](const net::Envelope& env) {
    if (const auto* hb = net::msg_cast<GlHeartbeat>(env.payload)) {
      telemetry::count(endpoint_.network().telemetry(), gl_heartbeats_);
      if (hb->epoch >= epoch_) {
        epoch_ = hb->epoch;
        gl_ = hb->gl;
        last_gl_heartbeat_ = now();
      }
    }
  });
  endpoint_.set_request_handler([this](const net::Envelope& env, net::Responder r) {
    if (net::msg_cast<GlQueryRequest>(env.payload) == nullptr) return;
    auto* tel = endpoint_.network().telemetry();
    telemetry::count(tel, "ep.gl_queries");
    const auto span = telemetry::begin_span(tel, env.ctx, "ep.gl_query", this->name());
    auto resp = std::make_shared<GlQueryResponse>();
    // Only vouch for a GL we have heard from recently.
    const sim::Time window =
        config_.gl_heartbeat_period * config_.heartbeat_timeout_factor;
    resp->ok = gl_ != net::kNullAddress && now() - last_gl_heartbeat_ <= window;
    resp->gl = gl_;
    telemetry::end_span(tel, span, resp->ok ? "ok" : "unknown_gl");
    r.respond(resp);
  });
}

void EntryPoint::start() {
  endpoint_.network().join_group(gl_group_, endpoint_.address());
  if (trace_) trace_->record(name(), "ep.start");
}

void EntryPoint::fail() {
  endpoint_.network().leave_group(gl_group_, endpoint_.address());
  endpoint_.go_down();
  crash();
}

void EntryPoint::restart() {
  recover();
  endpoint_.go_up();
  gl_ = net::kNullAddress;
  last_gl_heartbeat_ = -1.0;
  start();
}

}  // namespace snooze::core
