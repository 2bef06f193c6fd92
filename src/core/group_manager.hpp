// Group Manager (GM) and Group Leader (GL) — paper §II.
//
// A GM manages a subset of LCs: receives their monitoring data, estimates
// VM resource demand, takes placement / relocation / reconfiguration
// decisions, and manages their power states. Exactly one GM is elected
// Group Leader (via the coordination service); the GL oversees the GMs,
// keeps aggregated summaries, assigns joining LCs to GMs and dispatches VM
// submissions. Per the paper's self-organization design the two roles live
// in one component: "when an existing GM becomes the new leader it switches
// to GL mode" — its former LCs are told to rejoin the hierarchy, because
// components have dedicated roles (a GL does not manage LCs directly).
// The GM role is implemented in group_manager.cpp, the GL role in
// group_leader.cpp; the GL's soft state is one LeaderTerm (group_leader.hpp).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "consolidation/aco.hpp"
#include "coord/leader_election.hpp"
#include "core/config.hpp"
#include "core/estimator.hpp"
#include "core/fence.hpp"
#include "core/group_leader.hpp"
#include "core/messages.hpp"
#include "core/policies.hpp"
#include "core/relocation.hpp"
#include "core/summary_codec.hpp"
#include "net/rpc.hpp"
#include "obs/slowness.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flat_map.hpp"

namespace snooze::core {

class GroupManager final : public sim::Actor {
 public:
  GroupManager(sim::Engine& engine, net::Network& network, net::Address coord_service,
               SnoozeConfig config, net::GroupId gl_heartbeat_group, std::string name,
               sim::Trace* trace = nullptr);

  /// Join the hierarchy: start the leader election and the GM role timers.
  void start();

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] net::Address address() const { return endpoint_.address(); }
  [[nodiscard]] bool is_leader() const { return term_.has_value(); }
  /// Election epoch of this GM's current (or last) leadership term.
  [[nodiscard]] std::uint64_t epoch() const { return my_epoch_; }
  /// Highest GL epoch observed (heartbeats and fenced commands).
  [[nodiscard]] std::uint64_t gl_epoch_seen() const { return gl_fence_.high_water; }
  /// True while a new GL term defers client work to rebuild soft state.
  [[nodiscard]] bool reconciling() const { return term().reconciling; }
  /// GL-domain commands this GM rejected as stale.
  [[nodiscard]] std::uint64_t fence_rejected() const { return gl_fence_.rejected; }
  /// Tripwire: stale GL-domain commands that reached the apply path (must
  /// stay 0; the chaos invariant checker flags any increase).
  [[nodiscard]] std::uint64_t stale_accepts() const { return gl_fence_.stale_accepts; }
  [[nodiscard]] net::Address current_gl() const { return current_gl_; }
  [[nodiscard]] std::size_t lc_count() const { return lcs_.size(); }
  [[nodiscard]] std::size_t vm_count() const;
  [[nodiscard]] std::size_t known_gm_count() const { return term().gms.size(); }
  [[nodiscard]] net::GroupId heartbeat_group() const { return gm_group_; }
  [[nodiscard]] std::vector<GmInfo> gm_infos() const;
  [[nodiscard]] std::vector<LcInfo> lc_infos() const;

  /// All network addresses this component owns (main endpoint + coordination
  /// client) — the unit a fault injector partitions together.
  [[nodiscard]] std::vector<net::Address> network_addresses() const {
    return {endpoint_.address(), election_.client_address()};
  }

  // --- maintenance (rolling upgrades) ----------------------------------------
  /// Software version this node runs; bumped by the upgrade orchestrator
  /// across a drain-and-restart cycle.
  [[nodiscard]] std::uint32_t software_version() const { return software_version_; }
  void set_software_version(std::uint32_t v) { software_version_ = v; }

  /// Enter drain mode ahead of a restart: a leader steps down, managed LCs
  /// are resigned back to the hierarchy, new LC joins are refused and the
  /// summary stream stops (so the GL ages this GM out gracefully).
  void begin_drain();
  void cancel_drain();
  [[nodiscard]] bool draining() const { return draining_; }

  /// Migrate every (non-migrating) VM off `source` to other powered-on,
  /// non-draining LCs of this group, first-fit with headroom accounting.
  /// Returns the number of migrations commanded.
  std::size_t evacuate_lc(net::Address source);

  // --- cluster autoscaling (GL-driven, executed per GM) ----------------------
  /// Wake up to `n` suspended LCs; returns how many wakeups were commanded.
  std::size_t scale_wake(std::size_t n);
  /// Suspend up to `n` idle powered-on LCs (bypassing the idle threshold —
  /// the caller already decided the fleet has excess capacity).
  std::size_t scale_suspend(std::size_t n);

  /// GL-side idempotency book size (RSS proxy for long-run soak gates).
  [[nodiscard]] std::size_t submission_book_size() const {
    return term().completed_submissions.size();
  }

  // --- summary stream (GL-side introspection) --------------------------------
  /// The GL's VM -> owner record, built from GM summaries. Empty when this
  /// node is not the leader.
  [[nodiscard]] const std::map<VmId, VmOwnership>& vm_inventory() const {
    return term().vm_inventory;
  }
  /// Unresolved cross-GM duplicate claims awaiting the incumbent's next
  /// summary (diagnostic; steady state is empty).
  [[nodiscard]] std::size_t vm_conflict_count() const { return term().vm_conflicts.size(); }
  /// GL: age of the stalest GM summary, in seconds (obs SLI). Negative when
  /// this node is not the leader or knows no GMs yet.
  [[nodiscard]] double summary_staleness() const;
  /// GL: worst LC heartbeat age aggregated hierarchically across GM
  /// summaries. Negative until a summary carried the aggregate.
  [[nodiscard]] double aggregated_lc_heartbeat_age() const;

  // --- gray-failure detection -------------------------------------------------
  /// LCs currently on probation / in quarantine (GM role; obs SLI inputs).
  [[nodiscard]] std::size_t probation_count() const;
  [[nodiscard]] std::size_t quarantined_count() const;
  /// GMs the GL currently flags as slow (GL role).
  [[nodiscard]] std::size_t gm_probation_count() const;
  /// Containment state of one managed LC: 0 healthy, 1 probation,
  /// 2 quarantined, -1 not managed by this GM (CLI / obs rendering).
  [[nodiscard]] int lc_health_of(net::Address lc) const;
  /// Cumulative seconds this GM's circuit breakers spent open (obs SLI).
  [[nodiscard]] double breaker_open_seconds() const {
    return endpoint_.breaker_open_seconds();
  }

  // --- fault injection ---------------------------------------------------------
  void fail();
  void restart();

  // --- gray (fail-slow) injection ---------------------------------------------
  /// Service-time stretch > 1 delays this GM's summary assembly and probe
  /// turnaround (heartbeats keep flowing). Injector-owned, like the LC knob.
  void set_service_stretch(double factor) { service_stretch_ = factor; }

 private:
  // Per-VM knowledge within a GM.
  struct VmRecord {
    ResourceVector requested;
    ResourceEstimator estimator;
    bool has_descriptor = false;
    VmDescriptor descriptor;  ///< known iff this GM placed the VM
    bool migrating = false;   ///< reported in flight by the LC (don't re-move)
    [[nodiscard]] ResourceVector demand() const {
      return estimator.empty() ? requested : estimator.estimate();
    }
  };
  enum class LcPower { kOn, kSuspended, kWaking };
  /// Gray-failure containment ladder. Probation keeps the node serving its
  /// VMs but excludes it from new work; quarantine evacuates and suspends it.
  enum class LcHealth { kHealthy, kProbation, kQuarantined };
  struct LcRecord {
    ResourceVector capacity;
    ResourceVector reserved;
    ResourceVector used;
    sim::Time last_heartbeat = 0.0;
    sim::Time idle_since = -1.0;  ///< <0: not idle
    LcPower power = LcPower::kOn;
    /// Lease epoch the LC minted at join time; stamped on every command we
    /// send it so a successor GM's newer lease fences us off.
    std::uint64_t lease_epoch = 0;
    /// Reported by the LC while it empties out for a restart: no new
    /// placements, no relocation/consolidation targets, no suspends.
    bool draining = false;
    /// Gray-failure containment state machine (apply_containment()).
    LcHealth health = LcHealth::kHealthy;
    sim::Time probation_since = 0.0;
    sim::Time quarantined_at = 0.0;
    int clean_evals = 0;       ///< consecutive unflagged evals while reinstating
    int quarantine_count = 0;  ///< lifetime quarantines (>1 counts as a flap)
    std::map<VmId, VmRecord> vms;

    /// In service: powered on, not draining and healthy. Only such an LC
    /// takes new work (relocation, evacuation and consolidation targets) or
    /// is suspended as idle.
    [[nodiscard]] bool takes_new_work() const {
      return power == LcPower::kOn && !draining && health == LcHealth::kHealthy;
    }
  };

  void handle_oneway(const net::Envelope& env);
  void handle_request(const net::Envelope& env, net::Responder responder);

  // GM role ------------------------------------------------------------------
  void gm_tick_heartbeat();
  void gm_tick_summary();
  /// GL-fenced command: stop a VM copy the GL identified as a cross-GM
  /// duplicate (a newer placement of the same VM id exists under another GM).
  void handle_revoke_vm(const RevokeVmRequest& req);
  void gm_check_lc_liveness();
  void gm_energy_check();
  void gm_reconfigure();
  /// Gray-failure detection round: probe peers (GL -> GMs, GM -> LCs), then
  /// re-score the fleet with the samples of previous rounds.
  void gm_probe_peers();
  /// Re-evaluate the slowness scorer and run the containment state machine
  /// (GM role) or refresh GM probation flags (GL role).
  void gm_evaluate_slowness();
  /// GM role: drive each LC's healthy -> probation -> quarantined ->
  /// reinstated ladder from the scorer's flags.
  void apply_containment();
  /// Send this tick's (possibly stretch-delayed) summary: the VM placements
  /// changed since the last acked update — or a full snapshot after
  /// reconnect / GL change / nack — as an acknowledged GmSummaryDelta.
  void gm_emit_summary();
  void handle_lc_join(const LcJoinRequest& req, net::Responder responder);
  void handle_monitor(const LcMonitorData& data);
  void handle_anomaly(const AnomalyEvent& event);
  void handle_migration_done(const MigrationDone& done);
  void handle_vm_terminated(const VmTerminated& done);
  void handle_placement(const PlacementRequest& req, std::uint64_t epoch,
                        telemetry::SpanContext ctx, net::Responder responder);
  /// Stamp an outbound LC command with the lease epoch of its target.
  void stamp_lease(net::Message& msg, net::Address lc) const;
  /// An LC answered with StaleEpochError: a successor GM holds a newer
  /// lease, so this LC (and its VMs) are no longer ours. Returns true when
  /// the reply was a stale-epoch rejection.
  bool handle_stale_lc_reply(const net::MsgPtr& reply, net::Address lc);
  /// Drop one LC and everything this GM keeps about it. Returns whether the
  /// LC was managed here.
  bool forget_lc(net::Address lc);
  /// Hand every managed LC back to the hierarchy (a GmResign multicast;
  /// nothing is sent once the endpoint is down) and forget all per-LC state.
  void resign_lcs();
  /// Command `lc` to stop its copy of `vm` under the LC's lease.
  void stop_vm(net::Address lc, VmId vm);
  /// Count, trace and answer one failed placement.
  void fail_placement(telemetry::SpanContext span, std::string_view status,
                      const net::Responder& responder);
  /// One LC's record as the placement policies and planners see it.
  [[nodiscard]] static LcInfo lc_info(net::Address addr, const LcRecord& record);
  void place_on(net::Address lc, const VmDescriptor& vm, telemetry::SpanContext span,
                net::Responder responder);
  void try_wakeup_then_place(const VmDescriptor& vm, telemetry::SpanContext span,
                             net::Responder responder);
  void execute_moves(const std::vector<RelocationMove>& moves);
  void reschedule_vm(const VmDescriptor& vm);
  /// Command one LC to suspend / wake (the shared machinery behind the idle
  /// energy check, the autoscaler's capacity decisions and wake-to-place).
  /// The wake request travels under `span`; `then`, when set, hears how the
  /// wake ended: "ok", "fenced" or "wakeup_failed".
  void gm_suspend_lc(net::Address target);
  void gm_wake_lc(net::Address target, telemetry::SpanContext span = {},
                  std::function<void(std::string_view status)> then = {});
  [[nodiscard]] std::vector<VmLoad> vm_loads(const LcRecord& record) const;
  void on_lc_failed(net::Address lc);

  // GL role (group_leader.cpp) -----------------------------------------------
  /// The current term's state, or an empty term when not leading.
  [[nodiscard]] const LeaderTerm& term() const;
  void become_leader(std::uint64_t epoch);
  /// Leave GL mode (stale-epoch rejection, newer heartbeat, or session
  /// expiry) and re-enter the election as a plain GM. Idempotent.
  void step_down(const char* reason);
  void finish_reconcile(std::uint64_t term);
  void gl_tick_heartbeat();
  void gl_check_gm_liveness();
  /// GL half of the gray pass: flag slow GMs off the dispatch path.
  void gl_flag_slow_gms();
  /// GMs that take new work (LC assignments, VM dispatch): those not
  /// flagged slow, or every GM when the whole fleet is flagged.
  [[nodiscard]] std::vector<GmInfo> work_candidates() const;
  void handle_assign_lc(const AssignLcRequest& req, net::Responder responder);
  void handle_submit(const SubmitVmRequest& req, telemetry::SpanContext ctx,
                     net::Responder responder);
  void dispatch_linear_search(VmDescriptor vm, std::vector<net::Address> candidates,
                              std::size_t index, telemetry::SpanContext span,
                              net::Responder responder);
  void answer_submit(VmId vm, const net::Responder& responder,
                     const SubmitVmResponse& result);
  /// Summary stream: apply one GmSummaryDelta to the sender's decoder,
  /// sync the VM inventory, and ack (ok=false asks the GM to snapshot).
  void handle_summary_delta(const GmSummaryDelta& delta, net::Responder responder);
  /// Inventory bookkeeping for one placed / removed VM from an applied
  /// summary; detects cross-GM duplicate claims (same VM id under two GMs).
  void note_vm_placed(net::Address gm, VmId vm, net::Address lc);
  void note_vm_removed(net::Address gm, VmId vm);
  /// After applying a summary from `gm`, settle conflicts where `gm` is the
  /// incumbent: if it still reports the VM, revoke the challenger's copy;
  /// if it dropped the VM, the challenger simply becomes the owner.
  void resolve_conflicts_for(net::Address gm);
  /// Drop a departed GM's inventory entries and settle its conflicts; the
  /// ids of the VMs it took out of the inventory are appended to `dropped`.
  void drop_gm_inventory(net::Address gm, std::vector<VmId>& dropped);
  void handle_gl_heartbeat(const GlHeartbeat& hb);
  /// Record a completed submission in the book (and its write for pruning).
  void book_submission(VmId vm, net::Address lc, net::Address gm);
  /// Drop submission-book entries unrefreshed for longer than the retention
  /// window whose VM the inventory no longer lists (a terminated VM whose
  /// client is long gone). Bounds the book on long-horizon runs. Visits the
  /// writes that expired since the last call and the VMs in `dropped`, the
  /// only entries that can have become prunable since.
  void prune_submission_book(const std::vector<VmId>& dropped);

  void trace_event(std::string_view kind, std::string_view detail = {});

  /// Telemetry sink shared by every component on this network (may be null).
  [[nodiscard]] telemetry::Telemetry* tel() const {
    return endpoint_.network().telemetry();
  }
  /// Count one event in the metrics registry, the only tally of GM and GL
  /// events: every reader (benches, obs, CLI, tests) reads it by name.
  void bump(std::string_view counter, std::uint64_t delta = 1) {
    telemetry::count(tel(), counter, delta);
  }
  /// Handles of the counters bumped every period or probe round; the rest
  /// go by name.
  struct HotCounters {
    telemetry::CounterRef<"gm.heartbeats"> gm_heartbeats;
    telemetry::CounterRef<"gl.heartbeats"> gl_heartbeats;
    telemetry::CounterRef<"gm.summary_snapshots"> summary_snapshots;
    telemetry::CounterRef<"gm.summary_deltas"> summary_deltas;
    telemetry::CounterRef<"gm.summary_bytes"> summary_bytes;
    telemetry::CounterRef<"gray.probes"> probes;
  };

  net::RpcEndpoint endpoint_;
  HotCounters hot_;
  coord::LeaderElection election_;
  SnoozeConfig config_;
  net::GroupId gl_group_;
  net::GroupId gm_group_;
  sim::Trace* trace_;

  bool started_ = false;
  bool draining_ = false;
  std::uint32_t software_version_ = 1;
  net::Address current_gl_ = net::kNullAddress;
  /// Fence for the GL authority domain: tracks the highest GL epoch seen
  /// (from heartbeats and fenced commands) and rejects stale dispatches.
  EpochFence gl_fence_;
  std::uint64_t my_epoch_ = 0;
  /// GL soft state, engaged exactly while this GM leads.
  std::optional<LeaderTerm> term_;

  /// Managed LCs, address-sorted in a flat table: the per-heartbeat and
  /// per-report lookups binary-search packed addresses, and every scan
  /// (placement, probes, summaries, liveness) runs in ascending address
  /// order. Insert/erase shift the table, so neither may happen under a
  /// loop over it.
  util::FlatMap<net::Address, LcRecord> lcs_;
  /// (LC, VM) pairs with an in-flight StartVm this GM issued. A slow LC's
  /// monitoring report can list the booting copy before the ack arrives;
  /// adopting it would smuggle an unconfirmed placement into the summary
  /// stream (and the GL's idempotency book) that the timeout path may yet
  /// abort. The call's callback settles the pair either way.
  std::set<std::pair<net::Address, VmId>> inflight_placements_;
  /// (LC, VM) pairs whose StartVm timed out and were aborted with a StopVm.
  /// A slow-but-alive LC keeps monitoring-reporting the booting copy until
  /// the abort lands; adopting that report would let the idempotent
  /// placement replay ack a submission whose VM is about to be killed.
  /// Entries lift on re-placement, termination, or LC removal.
  std::set<std::pair<net::Address, VmId>> condemned_vms_;
  /// The VM ids one monitoring report lists, reused from report to report.
  std::vector<VmId> reported_scratch_;

  // --- summary stream --------------------------------------------------------
  // Encoder state for the outbound stream. The stream id is bumped on
  // restart() so a delayed delta from a previous life can never be confused
  // with the fresh stream's sequence numbers.
  SummaryEncoder summary_encoder_;
  std::uint64_t summary_stream_ = 1;
  /// GL (and its epoch) the stream is currently aimed at; any change forces
  /// a snapshot (the new leader's decoder starts unsynced).
  net::Address summary_gl_ = net::kNullAddress;
  std::uint64_t summary_gl_epoch_ = 0;

  /// The GL's dispatch and assignment policies belong to the GM, not the
  /// term: their round-robin cursors carry on when this GM leads again.
  std::unique_ptr<DispatchPolicy> dispatch_policy_;
  std::unique_ptr<PlacementPolicy> placement_policy_;
  RoundRobinAssignment assignment_;

  /// Peer-relative fail-slow scorer: over LCs in GM mode, over GMs in GL
  /// mode (cleared on every role change so baselines never mix).
  obs::SlownessScorer scorer_;
  double service_stretch_ = 1.0;  ///< gray-fault injection (1 = healthy)
};

}  // namespace snooze::core
