// The Snooze control-plane protocol.
//
// Every message of the hierarchy from Figure 1 of the paper: GL heartbeats
// (multicast to EPs, GMs and discovering LCs), GM heartbeats (multicast to
// the GM's LC group), LC heartbeats + monitoring (unicast to the GM), the
// join/assignment handshakes, the two-level VM submission path, relocation
// and reconfiguration commands, and the energy-management commands.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/summary_codec.hpp"
#include "core/types.hpp"
#include "net/network.hpp"

namespace snooze::core {

using net::Address;

// --------------------------------------------------------------------------
// Heartbeats
// --------------------------------------------------------------------------

/// GL -> multicast group (EPs, GMs, discovering LCs). Carries the leader's
/// election epoch in the inherited `epoch` field; higher wins, lower is a
/// deposed leader whose heartbeats are ignored.
struct GlHeartbeat final : net::Message {
  Address gl = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gl.heartbeat"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }
};

/// GM -> its LC multicast group.
struct GmHeartbeat final : net::Message {
  Address gm = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gm.heartbeat"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// GM -> GL (RPC): the aggregated resource summary (paper §II.B: "each GM
/// periodically sends aggregated resource monitoring information to the
/// GL"), batched as the aggregates plus only the per-VM location *changes*
/// since the last acknowledged update — O(churn) on the wire instead of
/// O(VMs). A full snapshot (`snapshot` set, `placed` complete) re-anchors
/// the stream on first contact, GL change, reconnect, or any lost/negative
/// ack; a freshly elected GL rebuilds its submission book from these during
/// the reconciliation window. See core/summary_codec.hpp for the exact
/// safety argument.
struct GmSummaryDelta final : net::Message {
  Address gm = net::kNullAddress;
  ResourceVector used;      ///< estimated VM demand over the GM's LCs
  ResourceVector capacity;  ///< total capacity of powered-on LCs
  std::uint32_t lc_count = 0;
  std::uint32_t vm_count = 0;
  /// Hierarchical heartbeat aggregation: the worst (largest) LC heartbeat
  /// age this GM currently observes, so the GL tracks fleet-wide liveness
  /// health in O(GMs) instead of receiving per-LC heartbeats.
  double worst_lc_heartbeat_age = 0.0;
  /// The encoder's snapshot or delta, applied by the GL's decoder as sent.
  SummaryUpdate update;
  [[nodiscard]] std::string_view type() const override { return "gm.summary_d"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 104 + update.placed.size() * 16 + update.removed.size() * 8;
  }
};

struct GmSummaryAck final : net::Message {
  bool ok = false;  ///< false: update rejected, sender must snapshot
  std::uint64_t seq = 0;
  [[nodiscard]] std::string_view type() const override { return "gm.summary_d.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 20; }
};

/// LC -> GM liveness heartbeat.
struct LcHeartbeat final : net::Message {
  Address lc = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "lc.heartbeat"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// LC -> GM: periodic per-VM monitoring data (paper §II.B).
struct LcMonitorData final : net::Message {
  Address lc = net::kNullAddress;
  ResourceVector capacity;
  ResourceVector reserved;  ///< sum of requested capacity of hosted VMs
  ResourceVector used;      ///< actual consumption right now
  struct VmUsage {
    VmId vm = hypervisor::kNullVm;
    ResourceVector requested;  ///< lets a new GM learn inherited VMs
    ResourceVector used;
    /// True while an outbound live migration of this VM is in flight, so a
    /// GM inheriting the LC after a failover learns about half-finished
    /// migrations and does not command a second one.
    bool migrating = false;
    /// Memory-subsystem profile + the throughput multiplier the VM currently
    /// experiences. Profile-less VMs serialize neither (penalty is then 1 by
    /// construction), keeping legacy traffic byte-identical.
    interference::MemProfile profile;
    double penalty = 1.0;
  };
  std::vector<VmUsage> vms;
  /// Per-socket shared-resource report (empty on flat hosts): capacity and
  /// aggregated demand of the socket's LLC and memory-bandwidth pools.
  struct SocketReport {
    double llc_mb = 0.0;
    double mem_bw_gbps = 0.0;
    double llc_demand_mb = 0.0;
    double bw_demand_gbps = 0.0;
    std::uint32_t vms = 0;
  };
  std::vector<SocketReport> sockets;
  /// True while the node is being drained for maintenance (rolling upgrade):
  /// the GM must stop placing new VMs on it and let it empty out.
  bool draining = false;
  [[nodiscard]] std::string_view type() const override { return "lc.monitor"; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t bytes = 96 + vms.size() * 72 + sockets.size() * 40;
    for (const auto& vm : vms) {
      if (vm.profile.present()) bytes += 32;  // profile (24) + penalty (8)
    }
    return bytes;
  }
};

// --------------------------------------------------------------------------
// Self-organization
// --------------------------------------------------------------------------

/// LC -> GL: request a GM assignment (RPC).
struct AssignLcRequest final : net::Message {
  Address lc = net::kNullAddress;
  ResourceVector capacity;
  [[nodiscard]] std::string_view type() const override { return "gl.assign_lc"; }
  [[nodiscard]] std::size_t wire_size() const override { return 48; }
};

struct AssignLcResponse final : net::Message {
  bool ok = false;
  Address gm = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gl.assign_lc.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// LC -> GM: join the GM's group (RPC).
struct LcJoinRequest final : net::Message {
  Address lc = net::kNullAddress;
  ResourceVector capacity;
  /// Lease epoch the LC mints for this GM relationship (monotone per LC).
  /// The GM must stamp every subsequent command to this LC with it; once the
  /// LC joins elsewhere, the old lease is fenced off.
  std::uint64_t lease_epoch = 0;
  [[nodiscard]] std::string_view type() const override { return "gm.join_lc"; }
  [[nodiscard]] std::size_t wire_size() const override { return 56; }
};

struct LcJoinResponse final : net::Message {
  bool ok = false;
  net::GroupId heartbeat_group = 0;  ///< GM's heartbeat multicast group
  [[nodiscard]] std::string_view type() const override { return "gm.join_lc.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// Promoted GM -> its former LCs: rejoin the hierarchy immediately.
struct GmResign final : net::Message {
  Address gm = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gm.resign"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// Typed rejection of an authority-bearing command whose epoch is below the
/// receiver's high-water mark. Sent in place of the normal response; the
/// deposed sender must step down and re-join its election (GL) or drop the
/// fenced-off LC (GM).
struct StaleEpochError final : net::Message {
  /// The receiver's current high-water epoch for the violated domain.
  std::uint64_t observed = 0;
  [[nodiscard]] std::string_view type() const override { return "fence.stale"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }
};

// --------------------------------------------------------------------------
// VM submission path (client -> EP -> GL -> GM -> LC)
// --------------------------------------------------------------------------

/// Client -> EP: who is the current GL? (RPC)
struct GlQueryRequest final : net::Message {
  [[nodiscard]] std::string_view type() const override { return "ep.gl_query"; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

struct GlQueryResponse final : net::Message {
  bool ok = false;
  Address gl = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "ep.gl_query.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// Client -> GL: submit one VM (RPC).
struct SubmitVmRequest final : net::Message {
  VmDescriptor vm;
  [[nodiscard]] std::string_view type() const override { return "gl.submit_vm"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 120 + profile_wire_bytes(vm.mem_profile);
  }
};

struct SubmitVmResponse final : net::Message {
  bool ok = false;
  Address lc = net::kNullAddress;  ///< where the VM ended up
  Address gm = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gl.submit_vm.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }
};

/// GL -> GM: try to place this VM on one of your LCs (RPC).
struct PlacementRequest final : net::Message {
  VmDescriptor vm;
  [[nodiscard]] std::string_view type() const override { return "gm.place_vm"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 120 + profile_wire_bytes(vm.mem_profile);
  }
};

struct PlacementResponse final : net::Message {
  bool ok = false;
  Address lc = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gm.place_vm.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 16; }
};

/// GM -> LC: start this VM (RPC; reply after the boot delay).
struct StartVmRequest final : net::Message {
  VmDescriptor vm;
  [[nodiscard]] std::string_view type() const override { return "lc.start_vm"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 120 + profile_wire_bytes(vm.mem_profile);
  }
};

struct StartVmResponse final : net::Message {
  bool ok = false;
  [[nodiscard]] std::string_view type() const override { return "lc.start_vm.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

/// GM -> LC (one-way, best effort): abort/stop a VM. Sent when the GM's
/// StartVm call timed out — the LC may or may not have started the VM, and a
/// possibly-started orphan must not keep running once the GM reports the
/// placement as failed (the GL will start the VM elsewhere).
struct StopVmRequest final : net::Message {
  VmId vm = hypervisor::kNullVm;
  [[nodiscard]] std::string_view type() const override { return "lc.stop_vm"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }  // + lease epoch
};

/// GL -> GM (one-way, GL-epoch fenced): stop the duplicate copy of `vm`
/// running on `lc`. Sent when the GL's VM->GM ownership inventory (built
/// from delta summaries) proves two GMs host the same VM and the incumbent
/// re-asserted it — the challenger's copy is the orphan of a partition-torn
/// StartVm and must go.
struct RevokeVmRequest final : net::Message {
  VmId vm = hypervisor::kNullVm;
  Address lc = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "gm.revoke_vm"; }
  [[nodiscard]] std::size_t wire_size() const override { return 32; }
};

/// LC -> GM: a VM reached the end of its lifetime and was stopped.
struct VmTerminated final : net::Message {
  Address lc = net::kNullAddress;
  VmId vm = hypervisor::kNullVm;
  [[nodiscard]] std::string_view type() const override { return "gm.vm_done"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }
};

// --------------------------------------------------------------------------
// Anomaly events + relocation / reconfiguration
// --------------------------------------------------------------------------

/// LC -> GM: local anomaly detection (paper §II.A: LCs "detect local
/// overload/underload anomaly situations and report them").
struct AnomalyEvent final : net::Message {
  enum class Kind { kOverload, kUnderload, kInterference };
  Address lc = net::kNullAddress;
  Kind kind = Kind::kOverload;
  /// kOverload/kUnderload: bottleneck utilization. kInterference: the worst
  /// (smallest) throughput multiplier observed across the LC's VMs, reusing
  /// the slot so the wire size stays fixed.
  double utilization = 0.0;
  [[nodiscard]] std::string_view type() const override { return "gm.anomaly"; }
  [[nodiscard]] std::size_t wire_size() const override { return 28; }
};

/// GM -> source LC: live-migrate a VM to `destination` (RPC: acknowledged
/// when the migration *starts*; completion arrives as MigrationDone).
struct MigrateVmRequest final : net::Message {
  VmId vm = hypervisor::kNullVm;
  Address destination = net::kNullAddress;
  [[nodiscard]] std::string_view type() const override { return "lc.migrate_vm"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24; }
};

struct MigrateVmResponse final : net::Message {
  bool ok = false;
  [[nodiscard]] std::string_view type() const override { return "lc.migrate_vm.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

/// Source LC -> destination LC: hand over the VM at the end of pre-copy
/// (RPC; carries the descriptor so the destination can reconstruct state).
struct AdoptVmRequest final : net::Message {
  VmDescriptor vm;
  double downtime_s = 0.0;
  double remaining_lifetime_s = 0.0;  ///< 0 = unbounded
  [[nodiscard]] std::string_view type() const override { return "lc.adopt_vm"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 128 + profile_wire_bytes(vm.mem_profile);
  }
};

struct AdoptVmResponse final : net::Message {
  bool ok = false;
  [[nodiscard]] std::string_view type() const override { return "lc.adopt_vm.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

/// Source LC -> GM: migration finished (or failed).
struct MigrationDone final : net::Message {
  VmId vm = hypervisor::kNullVm;
  Address from = net::kNullAddress;
  Address to = net::kNullAddress;
  bool ok = false;
  /// Actual pre-copy wall time vs. the migration model's prediction for this
  /// VM. Their ratio is a per-LC slowdown sample for the gray-failure
  /// detector: a fail-slow node transfers at a fraction of its link rate.
  double duration_s = 0.0;
  double expected_s = 0.0;
  [[nodiscard]] std::string_view type() const override { return "gm.migr_done"; }
  [[nodiscard]] std::size_t wire_size() const override { return 48; }
};

// --------------------------------------------------------------------------
// Gray-failure detection
// --------------------------------------------------------------------------

/// GM -> LC and GL -> GM: latency probe (RPC, idempotent — the canonical
/// call_with_hedging site). The round-trip time, scored peer-relative,
/// is the primary fail-slow signal.
struct ProbeRequest final : net::Message {
  [[nodiscard]] std::string_view type() const override { return "gray.probe"; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

struct ProbeResponse final : net::Message {
  [[nodiscard]] std::string_view type() const override { return "gray.probe.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

// --------------------------------------------------------------------------
// Energy management
// --------------------------------------------------------------------------

/// GM -> LC: transition to the low-power state (RPC ack, then the LC goes
/// silent until woken).
struct SuspendRequest final : net::Message {
  [[nodiscard]] std::string_view type() const override { return "lc.suspend"; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

struct SuspendResponse final : net::Message {
  bool ok = false;
  [[nodiscard]] std::string_view type() const override { return "lc.suspend.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

/// GM -> LC: wake up (models Wake-on-LAN; processed even while suspended).
struct WakeupRequest final : net::Message {
  [[nodiscard]] std::string_view type() const override { return "lc.wakeup"; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

struct WakeupResponse final : net::Message {
  bool ok = false;
  [[nodiscard]] std::string_view type() const override { return "lc.wakeup.r"; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

}  // namespace snooze::core
