// Cloud client: discovers the current GL through the Entry Points and
// submits VMs to it, with retries across GL failovers. Observes end-to-end
// submission latency (the scalability metric of experiment E3) into the
// client.submit_latency histogram.
#pragma once

#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/rpc.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::core {

class Client final : public sim::Actor {
 public:
  /// ok, hosting LC, end-to-end latency in (virtual) seconds.
  using SubmitCb = std::function<void(bool ok, net::Address lc, sim::Time latency)>;

  Client(sim::Engine& engine, net::Network& network, std::vector<net::Address> entry_points,
         std::string name = "client", sim::Trace* trace = nullptr);

  /// Submit one VM; retries (EP rotation + GL re-discovery) up to
  /// `max_attempts` before reporting failure.
  void submit(const VmDescriptor& vm, SubmitCb cb = nullptr);

  /// Submit `vms` with a fixed inter-arrival gap; `cb` reports each
  /// submission's outcome, as submit() does.
  void submit_all(std::vector<VmDescriptor> vms, sim::Time inter_arrival,
                  SubmitCb cb = nullptr);

  /// Pause after failed discovery+submit round `round` (1-based; a
  /// submission's attempts_left counts down as its round counts up): 0.5 s
  /// doubled per round, clamped at 8 s, plus uniform jitter of up to half
  /// of it.
  [[nodiscard]] static sim::Time round_backoff(int round, util::Rng& rng);

  [[nodiscard]] net::Address address() const { return endpoint_.address(); }

  // --- statistics -------------------------------------------------------------
  // The registry's client.submissions/successes/failures (0 on a network
  // without telemetry).
  [[nodiscard]] std::uint64_t submitted() const {
    return telemetry::value(tel(), reads_.submitted);
  }
  [[nodiscard]] std::uint64_t succeeded() const {
    return telemetry::value(tel(), reads_.succeeded);
  }
  [[nodiscard]] std::uint64_t failed() const { return telemetry::value(tel(), reads_.failed); }

 private:
  void attempt(VmDescriptor vm, sim::Time started, int attempts_left,
               telemetry::SpanContext root, SubmitCb cb);
  void discover_gl(std::size_t ep_index, telemetry::SpanContext root,
                   std::function<void(net::Address)> cb);

  [[nodiscard]] telemetry::Telemetry* tel() const {
    return endpoint_.network().telemetry();
  }

  net::RpcEndpoint endpoint_;
  std::vector<net::Address> entry_points_;
  sim::Trace* trace_;
  net::Address cached_gl_ = net::kNullAddress;
  std::size_t next_ep_ = 0;
  int max_attempts_ = 4;
  /// Transport-level retries of one submission RPC against a known GL. The
  /// GL deduplicates submissions by VM id, so re-sends are safe. The overall
  /// deadline caps one round against a dead GL so re-discovery (which finds
  /// the successor) is reached quickly during a failover.
  net::RetryPolicy submit_policy_{.max_attempts = 2, .base_backoff = 0.5,
                                  .max_total = 25.0};

  /// The statistics' registry reads (a cache, so the const readers fill it).
  mutable struct {
    telemetry::CounterReader<"client.submissions"> submitted;
    telemetry::CounterReader<"client.successes"> succeeded;
    telemetry::CounterReader<"client.failures"> failed;
  } reads_;
};

}  // namespace snooze::core
