// Simulated datacenter network.
//
// Models unicast with a configurable latency distribution, multicast groups
// (the heartbeat channels of the Snooze hierarchy), and fault injection:
// node crashes (blackhole), probabilistic message loss (global, per node and
// per directed link), message duplication, bounded reordering, latency
// spikes, and partitions. Also the accounting point for the control-traffic
// measurements of the management-overhead experiment.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "sim/engine.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::net {

/// Identifier of a multicast group (e.g. the GL heartbeat channel).
using GroupId = std::uint32_t;

/// Per-link latency model: base + uniform jitter.
struct LatencyModel {
  sim::Time base = 0.5e-3;    ///< one-way base latency (seconds)
  sim::Time jitter = 0.2e-3;  ///< uniform extra in [0, jitter)

  [[nodiscard]] sim::Time sample(util::Rng& rng) const {
    return base + (jitter > 0.0 ? rng.uniform(0.0, jitter) : 0.0);
  }
};

/// Aggregate traffic counters (global and per node).
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;  ///< extra copies created by faults
  std::uint64_t bytes_sent = 0;
};

/// Fault knobs applied to traffic on a node or a directed link. Several
/// scopes may apply to one message (global, sender node, receiver node,
/// link): drop probabilities compose independently, extra latencies add up,
/// duplication/reordering use the strongest applicable knob.
struct LinkFaults {
  double drop = 0.0;            ///< probability a message is silently lost
  double duplicate = 0.0;       ///< probability a second copy is delivered
  double reorder = 0.0;         ///< probability of an extra reorder delay
  sim::Time reorder_delay = 0.05;  ///< max extra delay when reordered (uniform)
  sim::Time extra_latency = 0.0;   ///< deterministic added latency (spike)

  // Gray-failure knob: a seeded two-state burst process. While a link is
  // "bursting", every message gets uniform extra latency in
  // [flaky_latency/2, flaky_latency]; the state machine advances one step per
  // message (enter with flaky_start, leave with flaky_stop), so a single
  // fault entry produces correlated latency episodes rather than iid spikes.
  sim::Time flaky_latency = 0.0;  ///< max burst latency; 0 disables the knob
  double flaky_start = 0.05;      ///< per-message probability a burst begins
  double flaky_stop = 0.25;       ///< per-message probability a burst ends

  [[nodiscard]] bool clear() const {
    return drop == 0.0 && duplicate == 0.0 && reorder == 0.0 &&
           extra_latency == 0.0 && flaky_latency == 0.0;
  }
};

class Network {
 public:
  Network(sim::Engine& engine, LatencyModel latency = {});

  // --- topology -----------------------------------------------------------
  /// Register `endpoint` to receive messages addressed to `addr`.
  void attach(Address addr, Endpoint* endpoint);
  void detach(Address addr);
  [[nodiscard]] bool attached(Address addr) const;

  /// Allocate a fresh, never-used address.
  Address allocate_address();

  // --- messaging ----------------------------------------------------------
  /// Send `env.payload` from `env.from` to `env.to`, header fields as given;
  /// returns false if dropped at the source (sender down, receiver unknown is
  /// still "sent", loss decided at source).
  bool send(Envelope env);

  /// One-way send: the envelope mirrors the payload's context and epoch.
  bool send(Address from, Address to, MsgPtr msg);

  /// Deliver to every member of `group` except the sender.
  void multicast(Address from, GroupId group, const MsgPtr& msg);

  void join_group(GroupId group, Address member);
  void leave_group(GroupId group, Address member);
  [[nodiscard]] std::size_t group_size(GroupId group) const;

  // --- fault injection ----------------------------------------------------
  /// A down node neither sends nor receives (traffic is blackholed).
  void set_node_up(Address addr, bool up);
  [[nodiscard]] bool node_up(Address addr) const;

  /// Probability in [0,1] that any given message is silently lost.
  void set_drop_probability(double p) {
    drop_probability_ = p;
    update_fault_flag();
  }

  /// Fault knobs for one directed link (from -> to). Replaces any previous
  /// setting for that link; a clear LinkFaults value removes the entry.
  void set_link_faults(Address from, Address to, LinkFaults faults);
  void clear_link_faults(Address from, Address to);
  [[nodiscard]] LinkFaults link_faults(Address from, Address to) const;

  /// Fault knobs applied to every message a node sends or receives.
  void set_node_faults(Address node, LinkFaults faults);
  void clear_node_faults(Address node);

  /// Remove every per-link and per-node fault entry (global drop and
  /// partitions are separate knobs and stay untouched).
  void clear_all_faults();

  /// Partition the network into groups; traffic crosses partitions only if
  /// both ends are in the same group. Empty vector clears the partition.
  void set_partitions(std::vector<std::set<Address>> partitions);

  /// True when traffic can flow from `from` to `to` right now (both nodes
  /// up and no partition in between). Probabilistic loss is not considered.
  [[nodiscard]] bool reachable(Address from, Address to) const;

  // --- accounting ---------------------------------------------------------
  [[nodiscard]] const TrafficStats& stats() const { return stats_; }
  /// Per-node counters; zero for an address that never sent or received.
  [[nodiscard]] TrafficStats node_stats(Address addr) const;
  void reset_stats();

  /// Attach the telemetry sink all endpoints on this network report through.
  /// The global traffic counters are mirrored into its MetricsRegistry from
  /// the moment of attachment; pass nullptr to detach.
  void set_telemetry(telemetry::Telemetry* telemetry);
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return telemetry_; }

  [[nodiscard]] sim::Engine& engine() const { return engine_; }

 private:
  static constexpr std::uint32_t kNoDelivery = 0xFFFFFFFFu;

  /// In-flight message parked in the delivery slab until its engine event
  /// fires. Pooling the envelope here keeps the scheduled closure down to
  /// (this, index) — small and trivially copyable, so std::function stores
  /// it inline instead of heap-allocating per delivery.
  struct PendingDelivery {
    Envelope env;
    std::uint32_t next_free = kNoDelivery;
  };

  /// Per-address state. Addresses are small dense integers handed out by
  /// allocate_address(), so one vector indexed by Address serves the
  /// per-message lookups that hash maps used to.
  struct NodeState {
    Endpoint* endpoint = nullptr;  ///< null while nothing is attached
    TrafficStats stats;
  };

  [[nodiscard]] bool blocked(Address from, Address to) const;
  /// Combined fault view for one message (global + nodes + link).
  [[nodiscard]] LinkFaults effective_faults(Address from, Address to) const;
  void deliver_after(sim::Time delay, Envelope env);
  void complete_delivery(std::uint32_t index);
  void update_fault_flag();
  /// The record of `addr`, growing the table to cover it if needed.
  NodeState& node(Address addr);

  sim::Engine& engine_;
  LatencyModel latency_;
  Address next_address_ = 1;
  std::vector<NodeState> nodes_;  ///< indexed by Address
  std::set<Address> down_;
  /// Multicast groups; members sorted ascending and unique, so delivery
  /// order is by address and a join is idempotent.
  std::map<GroupId, std::vector<Address>> groups_;
  std::vector<std::set<Address>> partitions_;
  double drop_probability_ = 0.0;
  std::map<std::pair<Address, Address>, LinkFaults> link_faults_;
  std::map<Address, LinkFaults> node_faults_;
  /// Burst state of the flaky-link process per directed link. Advanced one
  /// step per message that crosses a link with flaky_latency > 0; erased
  /// whenever the faults feeding it are cleared.
  std::map<std::pair<Address, Address>, bool> flaky_bursting_;
  /// True while any probabilistic fault source is configured; when false,
  /// send() skips the per-message fault fold entirely (the common case on
  /// the 10k-LC scaling path).
  bool any_faults_ = false;
  std::vector<PendingDelivery> deliveries_;
  std::uint32_t delivery_free_ = kNoDelivery;
  /// Reused multicast membership snapshot (one allocation, not one per send).
  std::vector<Address> multicast_scratch_;
  TrafficStats stats_;

  telemetry::Telemetry* telemetry_ = nullptr;
  /// Cached registry handles: send() is the hottest path in the simulator,
  /// so the name lookup happens once, at set_telemetry() time.
  struct {
    telemetry::Counter* sent = nullptr;
    telemetry::Counter* delivered = nullptr;
    telemetry::Counter* dropped = nullptr;
    telemetry::Counter* duplicated = nullptr;
    telemetry::Counter* bytes = nullptr;
  } counters_;
};

}  // namespace snooze::net
