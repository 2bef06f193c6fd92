// Local Controller (LC) — paper §II.A.
//
// One LC controls each physical node: it enforces VM and host management
// commands from its Group Manager (start / migrate / suspend / wakeup),
// reports monitoring data, detects local overload/underload anomalies, and
// self-organizes into the hierarchy by listening for GL heartbeats,
// requesting a GM assignment from the GL, and joining that GM.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "core/config.hpp"
#include "core/fence.hpp"
#include "core/messages.hpp"
#include "hypervisor/host.hpp"
#include "hypervisor/migration.hpp"
#include "net/rpc.hpp"
#include "sim/actor.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace snooze::core {

class LocalController final : public sim::Actor {
 public:
  LocalController(sim::Engine& engine, net::Network& network,
                  hypervisor::HostSpec host_spec, SnoozeConfig config,
                  net::GroupId gl_heartbeat_group, sim::Trace* trace = nullptr);

  /// Begin hierarchy discovery (listen for GL heartbeats).
  void start();

  // --- introspection --------------------------------------------------------
  [[nodiscard]] net::Address address() const { return endpoint_.address(); }
  [[nodiscard]] const hypervisor::Host& host() const { return host_; }
  [[nodiscard]] bool assigned() const { return state_ == State::kAssigned; }
  [[nodiscard]] net::Address gm() const { return gm_; }
  [[nodiscard]] std::size_t vm_count() const { return host_.vm_count(); }
  [[nodiscard]] energy::PowerState power_state() const { return host_.power_state(); }
  [[nodiscard]] bool suspended() const {
    return power_state() == energy::PowerState::kSuspended;
  }
  /// Lease epoch of the GM currently holding authority over this node.
  [[nodiscard]] std::uint64_t lease_epoch() const { return gm_fence_.high_water; }
  /// Highest GL election epoch observed in heartbeats.
  [[nodiscard]] std::uint64_t gl_epoch_seen() const { return gl_epoch_seen_; }
  /// GM-domain commands this LC rejected as stale.
  [[nodiscard]] std::uint64_t fence_rejected() const { return gm_fence_.rejected; }
  /// Tripwire: stale GM-domain commands that reached the apply path (must
  /// stay 0; the chaos invariant checker flags any increase).
  [[nodiscard]] std::uint64_t stale_accepts() const { return gm_fence_.stale_accepts; }
  /// Age of the newest GM heartbeat as seen at time t; 0 while not assigned
  /// (an unassigned LC has no liveness expectation to be stale against).
  [[nodiscard]] sim::Time gm_heartbeat_age(sim::Time t) const {
    return state_ == State::kAssigned ? t - last_gm_heartbeat_ : 0.0;
  }

  // --- maintenance (rolling upgrades) ---------------------------------------
  /// Software version this node runs; bumped by the upgrade orchestrator
  /// across a drain-and-restart cycle.
  [[nodiscard]] std::uint32_t software_version() const { return software_version_; }
  void set_software_version(std::uint32_t v) { software_version_ = v; }

  /// Enter drain mode: no new placements or inbound adoptions are accepted,
  /// but in-flight outbound migrations run to completion. Cleared on restart.
  void begin_drain();
  void cancel_drain();
  [[nodiscard]] bool draining() const { return draining_; }
  /// Drained = nothing left to hand off: no hosted VMs and the migration
  /// link is quiet. A crashed node is trivially drained.
  [[nodiscard]] bool drained() const {
    return state_ == State::kStopped ||
           (host_.vm_count() == 0 && !migration_active_ && migration_queue_.empty());
  }

  /// Useful work accrued by hosted VMs: running-VM-seconds minus migration
  /// downtime. The "application performance" proxy of experiment E4.
  [[nodiscard]] double total_work(sim::Time t) const;

  /// Energy consumed by the node so far.
  [[nodiscard]] double energy_joules(sim::Time t) const {
    return host_.energy_joules(t);
  }

  // --- fault injection --------------------------------------------------------
  /// Hard-crash the node: hosted VMs are terminated (paper §II.E).
  void fail();
  /// Power the node back on as a fresh, empty LC; it rejoins the hierarchy.
  void restart();

  // --- gray (fail-slow) injection ---------------------------------------------
  /// Service-time stretch: a factor > 1 multiplies this node's operation
  /// latencies (VM boot, migration pre-copy, probe turnaround) while
  /// heartbeats keep flowing — the classic fail-slow signature. Not reset by
  /// restart(): the chaos injector owns the window and heals it explicitly.
  void set_service_stretch(double factor) { service_stretch_ = factor; }
  [[nodiscard]] double service_stretch() const { return service_stretch_; }
  /// CPU steal in [0,1): the fraction of cycles a noisy co-tenant (or a
  /// failing hypervisor) takes. Delivered usage shrinks by (1-steal) and VM
  /// runtimes stretch by 1/(1-steal).
  void set_cpu_steal(double frac) { cpu_steal_ = frac; }
  [[nodiscard]] double cpu_steal() const { return cpu_steal_; }
  /// Combined slowdown applied to service latencies.
  [[nodiscard]] double effective_slowdown() const {
    return service_stretch_ / std::max(1e-6, 1.0 - cpu_steal_);
  }

 private:
  enum class State { kStopped, kDiscovering, kJoining, kAssigned };

  struct VmMeta {
    VmDescriptor descriptor;
    sim::Time stop_at = 0.0;  ///< absolute termination time (0 = unbounded)
    sim::EventId stop_event = 0;
  };

  void handle_oneway(const net::Envelope& env);
  void handle_request(const net::Envelope& env, net::Responder responder);
  /// Reject a GM command whose epoch is below the current lease.
  void reject_stale(std::uint64_t epoch, net::Responder responder);
  void handle_gl_heartbeat(const GlHeartbeat& hb);
  void handle_gm_heartbeat();
  void request_assignment();
  void join_gm(net::Address gm);
  void become_discovering(const char* reason);
  void start_timers();
  void check_gm_liveness();
  void send_heartbeat();
  void send_monitor_data();
  void check_anomalies();

  void handle_start_vm(const StartVmRequest& req, telemetry::SpanContext ctx,
                       net::Responder responder);
  void handle_migrate(const MigrateVmRequest& req, net::Responder responder);
  void start_next_migration();
  void run_migration(hypervisor::VmId vm, net::Address dest);
  void handle_adopt(const AdoptVmRequest& req, net::Responder responder);
  void handle_suspend(net::Responder responder);
  void handle_wakeup(net::Responder responder);
  void finish_wakeup(net::Responder responder);
  void terminate_vm(hypervisor::VmId vm);
  void set_running_vms(double count);

  [[nodiscard]] bool serving() const {
    return power_state() == energy::PowerState::kOn;
  }
  void trace_event(std::string_view kind, std::string_view detail = {});

  /// Telemetry sink shared by every component on this network (may be null).
  [[nodiscard]] telemetry::Telemetry* tel() const {
    return endpoint_.network().telemetry();
  }
  void bump(std::string_view counter) { telemetry::count(tel(), counter); }

  net::RpcEndpoint endpoint_;
  /// Handles of the counters bumped every period; the rest go by name.
  telemetry::CounterRef<"lc.heartbeats"> heartbeats_;
  telemetry::CounterRef<"lc.monitor_reports"> monitor_reports_;
  hypervisor::Host host_;
  SnoozeConfig config_;
  net::GroupId gl_group_;
  sim::Trace* trace_;

  State state_ = State::kStopped;
  bool draining_ = false;
  std::uint32_t software_version_ = 1;
  net::Address gl_ = net::kNullAddress;
  net::Address gm_ = net::kNullAddress;
  /// Fence for the GM authority domain. The LC mints a fresh lease epoch on
  /// every join; commands stamped with an older lease come from a GM that
  /// lost this node (failover, rejoin) and are rejected.
  EpochFence gm_fence_;
  /// Monotone lease mint. Never reset — survives restarts so a GM from a
  /// previous incarnation can never outrank the current one.
  std::uint64_t lease_counter_ = 0;
  std::uint64_t gl_epoch_seen_ = 0;
  net::GroupId gm_group_ = 0;
  sim::Time last_gm_heartbeat_ = 0.0;
  sim::Time last_anomaly_ = -1e9;
  hypervisor::MigrationModel migration_model_;
  double service_stretch_ = 1.0;  ///< gray-fault injection (1 = healthy)
  double cpu_steal_ = 0.0;        ///< gray-fault injection (0 = healthy)

  std::map<hypervisor::VmId, VmMeta> vm_meta_;
  util::TimeWeighted running_vms_;
  double downtime_accum_ = 0.0;
  bool pending_wakeup_ = false;
  std::optional<net::Responder> wakeup_responder_;

  // Outbound live migrations share the node's migration link: one transfer
  // at a time, later requests queue (accepted immediately, started when the
  // link frees up).
  bool migration_active_ = false;
  std::deque<std::pair<hypervisor::VmId, net::Address>> migration_queue_;
};

}  // namespace snooze::core
