// Cloud client: discovers the current GL through the Entry Points and
// submits VMs to it, with retries across GL failovers. Records end-to-end
// submission latency (the scalability metric of experiment E3).
#pragma once

#include <functional>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/rpc.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace snooze::core {

class Client final : public sim::Actor {
 public:
  /// ok, hosting LC, end-to-end latency in (virtual) seconds.
  using SubmitCb = std::function<void(bool ok, net::Address lc, sim::Time latency)>;

  Client(sim::Engine& engine, net::Network& network, std::vector<net::Address> entry_points,
         SnoozeConfig config, std::string name = "client", sim::Trace* trace = nullptr);

  /// Submit one VM; retries (EP rotation + GL re-discovery) up to
  /// `max_attempts` before reporting failure.
  void submit(const VmDescriptor& vm, SubmitCb cb = nullptr);

  /// Submit `vms` with a fixed inter-arrival gap; `done` fires after the
  /// last response (success or failure) arrives.
  void submit_all(std::vector<VmDescriptor> vms, sim::Time inter_arrival,
                  std::function<void()> done = nullptr);

  [[nodiscard]] net::Address address() const { return endpoint_.address(); }

  // --- statistics -------------------------------------------------------------
  // The registry's client.submissions/successes/failures (0 on a network
  // without telemetry).
  [[nodiscard]] std::uint64_t submitted() const { return tally("client.submissions"); }
  [[nodiscard]] std::uint64_t succeeded() const { return tally("client.successes"); }
  [[nodiscard]] std::uint64_t failed() const { return tally("client.failures"); }
  [[nodiscard]] util::Percentiles& latencies() { return latencies_; }

 private:
  void attempt(VmDescriptor vm, sim::Time started, int attempts_left,
               telemetry::SpanContext root, SubmitCb cb);
  void discover_gl(std::size_t ep_index, telemetry::SpanContext root,
                   std::function<void(net::Address)> cb);

  [[nodiscard]] telemetry::Telemetry* tel() const {
    return endpoint_.network().telemetry();
  }
  [[nodiscard]] std::uint64_t tally(std::string_view counter) const {
    return tel() != nullptr ? tel()->metrics().value(counter) : 0;
  }

  /// Backoff before the next discovery round, per RetryPolicy semantics.
  [[nodiscard]] sim::Time rediscover_backoff(int attempts_left);

  net::RpcEndpoint endpoint_;
  std::vector<net::Address> entry_points_;
  SnoozeConfig config_;
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
  /// Backoff schedule between whole discovery+submit rounds.
  net::RetryPolicy round_policy_{.max_attempts = 4, .base_backoff = 0.5,
                                 .multiplier = 2.0, .max_backoff = 8.0};

  util::Percentiles latencies_;
};

}  // namespace snooze::core
