// Entry Point (EP) — paper §II.A, client layer.
//
// A predefined number of replicated Entry Points provide the user interface:
// each EP listens for GL heartbeats and answers clients' "who is the current
// GL?" queries, so clients survive GL failovers without hard-coding leader
// addresses.
#pragma once

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/rpc.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::core {

class EntryPoint final : public sim::Actor {
 public:
  EntryPoint(sim::Engine& engine, net::Network& network, net::GroupId gl_heartbeat_group,
             std::string name, sim::Trace* trace = nullptr);

  void start();

  [[nodiscard]] net::Address address() const { return endpoint_.address(); }
  [[nodiscard]] net::Address known_gl() const { return gl_; }

  void fail();
  void restart();

 private:
  net::RpcEndpoint endpoint_;
  /// Bumped per GL heartbeat, so looked up once.
  telemetry::CounterRef<"ep.gl_heartbeats"> gl_heartbeats_;
  net::GroupId gl_group_;
  sim::Trace* trace_;
  net::Address gl_ = net::kNullAddress;
  std::uint64_t epoch_ = 0;
  sim::Time last_gl_heartbeat_ = -1.0;
};

}  // namespace snooze::core
