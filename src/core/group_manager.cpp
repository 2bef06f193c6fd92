#include "core/group_manager.hpp"

#include <algorithm>
#include <charconv>

#include "consolidation/greedy.hpp"
#include "consolidation/migration_plan.hpp"
#include "net/pool.hpp"

namespace snooze::core {

namespace {
/// Roll a VM's requested capacity back out of an LC's reserved total,
/// clamped at zero (the LC's next monitoring report is the ground truth).
void release(ResourceVector& reserved, const ResourceVector& requested) {
  reserved -= requested;
  if (reserved.any_negative()) reserved = {};
}
}  // namespace

GroupManager::GroupManager(sim::Engine& engine, net::Network& network,
                           net::Address coord_service, SnoozeConfig config,
                           net::GroupId gl_heartbeat_group, std::string name,
                           sim::Trace* trace)
    : sim::Actor(engine, name),
      endpoint_(engine, network, network.allocate_address(), name),
      election_(engine, network, coord_service, name),
      config_(config),
      gl_group_(gl_heartbeat_group),
      // The GM's heartbeat channel: derived from its unique address.
      gm_group_(0x80000000u | endpoint_.address()),
      trace_(trace) {
  dispatch_policy_ = make_dispatch_policy(config_.dispatch_policy);
  placement_policy_ = make_placement_policy(config_.placement_policy);
  scorer_ = obs::SlownessScorer(obs::SlownessConfig{
      config_.gray.ewma_alpha, config_.gray.z_flag, config_.gray.z_clear,
      config_.gray.slow_flag_sustain_s});
  endpoint_.set_message_handler([this](const net::Envelope& env) { handle_oneway(env); });
  endpoint_.set_request_handler(
      [this](const net::Envelope& env, net::Responder r) { handle_request(env, r); });
}

void GroupManager::trace_event(std::string_view kind, std::string_view detail) {
  if (trace_) trace_->record(name(), kind, detail);
}

void GroupManager::start() {
  if (started_) return;
  started_ = true;
  // Fresh summary stream: the first update is a snapshot by construction.
  summary_encoder_.reset(summary_stream_);
  summary_gl_ = net::kNullAddress;
  summary_gl_epoch_ = 0;
  // Listen for GL heartbeats (to track the current leader).
  endpoint_.network().join_group(gl_group_, endpoint_.address());
  election_.set_on_demoted([this] { step_down("session expired"); });
  election_.start(std::to_string(endpoint_.address()),
                  [this](std::uint64_t epoch) { become_leader(epoch); });

  every(config_.gm_heartbeat_period, [this] {
    gm_tick_heartbeat();
    return true;
  });
  every(config_.gm_summary_period, [this] {
    gm_tick_summary();
    return true;
  });
  every(config_.lc_heartbeat_period, [this] {
    gm_check_lc_liveness();
    return true;
  });
  if (config_.energy_savings) {
    every(config_.energy_check_period, [this] {
      gm_energy_check();
      return true;
    });
  }
  if (config_.reconfiguration_period > 0.0 &&
      config_.consolidation != ConsolidationKind::kNone) {
    every(config_.reconfiguration_period, [this] {
      gm_reconfigure();
      return true;
    });
  }
  if (config_.gray.detection) {
    every(config_.gray.probe_period, [this] {
      gm_probe_peers();
      return true;
    });
  }
  trace_event("gm.start");
}

std::size_t GroupManager::vm_count() const {
  std::size_t n = 0;
  for (const auto& [addr, lc] : lcs_) n += lc.vms.size();
  return n;
}

LcInfo GroupManager::lc_info(net::Address addr, const LcRecord& record) {
  LcInfo info;
  info.lc = addr;
  info.capacity = record.capacity;
  info.reserved = record.reserved;
  info.estimated_used = record.used;
  info.powered_on = record.power == LcPower::kOn;
  info.draining = record.draining;
  info.probation = record.health != LcHealth::kHealthy;
  info.vm_count = static_cast<std::uint32_t>(record.vms.size());
  return info;
}

std::vector<LcInfo> GroupManager::lc_infos() const {
  std::vector<LcInfo> out;
  out.reserve(lcs_.size());
  for (const auto& [addr, record] : lcs_) out.push_back(lc_info(addr, record));
  return out;
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void GroupManager::handle_oneway(const net::Envelope& env) {
  if (const auto* hb = net::msg_cast<GlHeartbeat>(env.payload)) {
    handle_gl_heartbeat(*hb);
  } else if (const auto* monitor = net::msg_cast<LcMonitorData>(env.payload)) {
    handle_monitor(*monitor);
  } else if (const auto* hb2 = net::msg_cast<LcHeartbeat>(env.payload)) {
    const auto it = lcs_.find(hb2->lc);
    if (it != lcs_.end()) it->second.last_heartbeat = now();
  } else if (const auto* anomaly = net::msg_cast<AnomalyEvent>(env.payload)) {
    handle_anomaly(*anomaly);
  } else if (const auto* done = net::msg_cast<MigrationDone>(env.payload)) {
    handle_migration_done(*done);
  } else if (const auto* terminated = net::msg_cast<VmTerminated>(env.payload)) {
    handle_vm_terminated(*terminated);
  } else if (const auto* revoke = net::msg_cast<RevokeVmRequest>(env.payload)) {
    // GL authority domain: a deposed leader's revoke must never stop a VM.
    if (!gl_fence_.admit(env.epoch)) {
      bump("fence.rejected");
      trace_event("gm.fence_rejected", "epoch=" + std::to_string(env.epoch));
      return;
    }
    gl_fence_.note_applied(env.epoch);
    handle_revoke_vm(*revoke);
  }
}

void GroupManager::handle_request(const net::Envelope& env, net::Responder responder) {
  if (const auto* join = net::msg_cast<LcJoinRequest>(env.payload)) {
    handle_lc_join(*join, responder);
  } else if (const auto* delta = net::msg_cast<GmSummaryDelta>(env.payload)) {
    handle_summary_delta(*delta, responder);
  } else if (const auto* assign = net::msg_cast<AssignLcRequest>(env.payload)) {
    handle_assign_lc(*assign, responder);
  } else if (const auto* submit = net::msg_cast<SubmitVmRequest>(env.payload)) {
    handle_submit(*submit, env.ctx, responder);
  } else if (net::msg_cast<ProbeRequest>(env.payload) != nullptr) {
    // Gray-failure latency probe from the GL: answer after this GM's
    // effective service time so the GL's scorer sees a slow GM as slow.
    after(config_.gray.probe_service_time * service_stretch_, [responder] {
      responder.respond(std::make_shared<ProbeResponse>());
    });
  } else if (const auto* place = net::msg_cast<PlacementRequest>(env.payload)) {
    // Fence the GL authority domain: a dispatch from a deposed leader gets a
    // typed rejection that tells it to step down, never a placement.
    if (!gl_fence_.admit(env.epoch)) {
      bump("fence.rejected");
      trace_event("gm.fence_rejected", "epoch=" + std::to_string(env.epoch));
      auto err = std::make_shared<StaleEpochError>();
      err->observed = gl_fence_.high_water;
      responder.respond(err);
      return;
    }
    handle_placement(*place, env.epoch, env.ctx, responder);
  }
}

// ---------------------------------------------------------------------------
// GM role: heartbeats, monitoring, liveness
// ---------------------------------------------------------------------------

void GroupManager::gm_tick_heartbeat() {
  telemetry::count(tel(), hot_.gm_heartbeats);
  auto hb = net::make_message<GmHeartbeat>();
  hb->gm = endpoint_.address();
  endpoint_.multicast(gm_group_, hb);
}

void GroupManager::gm_tick_summary() {
  if (term_) return;  // the GL keeps no LCs and reports no summary
  if (draining_) return;  // silent: the GL ages us out before our restart
  if (current_gl_ == net::kNullAddress) return;
  if (service_stretch_ > 1.0) {
    // A gray GM assembles its summary slowly. The healthy path (stretch 1)
    // stays synchronous so event order — and the golden traces — are
    // untouched by the feature.
    after((service_stretch_ - 1.0) * 0.1, [this] { gm_emit_summary(); });
    return;
  }
  gm_emit_summary();
}

void GroupManager::gm_emit_summary() {
  if (term_ || draining_ || current_gl_ == net::kNullAddress) return;
  // A different GL — or the same one under a newer epoch (it restarted or a
  // successor took over) — holds none of our stream state: re-anchor.
  if (current_gl_ != summary_gl_ || gl_fence_.high_water != summary_gl_epoch_) {
    summary_encoder_.force_snapshot();
    summary_gl_ = current_gl_;
    summary_gl_epoch_ = gl_fence_.high_water;
  }
  auto msg = net::make_message<GmSummaryDelta>();
  msg->gm = endpoint_.address();
  const std::size_t vms = vm_count();
  VmLocations locations;
  locations.reserve(vms);
  double worst_age = 0.0;
  for (const auto& [addr, lc] : lcs_) {
    if (lc.power != LcPower::kOn) continue;
    msg->capacity += lc.capacity;
    worst_age = std::max(worst_age, now() - lc.last_heartbeat);
    for (const auto& [id, vm] : lc.vms) {
      msg->used += vm.demand();
      locations.emplace_back(id, addr);
    }
  }
  msg->lc_count = static_cast<std::uint32_t>(lcs_.size());
  msg->vm_count = static_cast<std::uint32_t>(vms);
  msg->worst_lc_heartbeat_age = worst_age;
  msg->update = summary_encoder_.encode(std::move(locations));
  const SummaryUpdate& update = msg->update;
  if (update.snapshot) {
    telemetry::count(tel(), hot_.summary_snapshots);
    // Snapshots are the rare re-anchor points of the stream (first contact,
    // lost ack, GL change); tracing them lets golden traces pin the
    // delta -> snapshot -> delta sequence around a reconnect.
    trace_event("gm.summary_snapshot", "stream=" + std::to_string(update.stream) +
                                           " seq=" + std::to_string(update.seq));
  } else {
    telemetry::count(tel(), hot_.summary_deltas);
  }
  telemetry::count(tel(), hot_.summary_bytes, msg->wire_size());
  const std::uint64_t seq = update.seq;
  endpoint_.call(current_gl_, msg, config_.rpc_timeout,
                 [this, seq](bool ok, const net::MsgPtr& reply) {
    const auto* ack = ok ? net::msg_cast<GmSummaryAck>(reply) : nullptr;
    if (ack != nullptr && ack->ok) {
      summary_encoder_.on_ack(ack->seq);
      return;
    }
    // Explicit rejection or transport timeout: either way the GL may not
    // hold this update — the next tick snapshots.
    if (ack != nullptr) bump("gm.summary_nacks");
    summary_encoder_.on_nack(seq);
  });
}

void GroupManager::handle_revoke_vm(const RevokeVmRequest& req) {
  const auto lc_it = lcs_.find(req.lc);
  if (lc_it == lcs_.end()) return;
  const auto vm_it = lc_it->second.vms.find(req.vm);
  if (vm_it == lc_it->second.vms.end()) return;
  if (vm_it->second.migrating) return;  // let the migration settle first
  bump("gm.revokes_honored");
  trace_event("gm.vm_revoked", "vm=" + std::to_string(req.vm));
  stop_vm(req.lc, req.vm);
  release(lc_it->second.reserved, vm_it->second.requested);
  lc_it->second.vms.erase(vm_it);
}

void GroupManager::handle_lc_join(const LcJoinRequest& req, net::Responder responder) {
  auto resp = std::make_shared<LcJoinResponse>();
  if (term_ || draining_) {
    // Dedicated roles: a GL does not manage LCs. A draining GM is about to
    // restart and must not take responsibility for new nodes either.
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  LcRecord record;
  record.capacity = req.capacity;
  record.last_heartbeat = now();
  record.lease_epoch = req.lease_epoch;
  lcs_[req.lc] = std::move(record);
  // A (re)joining node starts with a cold latency baseline — state from a
  // previous incarnation must not pre-flag or pre-clear it.
  scorer_.forget(req.lc);
  resp->ok = true;
  resp->heartbeat_group = gm_group_;
  responder.respond(resp);
  trace_event("gm.lc_joined");
}

void GroupManager::handle_monitor(const LcMonitorData& data) {
  const auto it = lcs_.find(data.lc);
  if (it == lcs_.end()) return;  // not ours (stale after resign)
  LcRecord& record = it->second;
  record.last_heartbeat = now();
  record.reserved = data.reserved;
  // Monitoring trust: a node under gray suspicion misreports in ways we
  // cannot distinguish from truth (CPU steal shrinks delivered usage), so
  // its reports are blended at half weight instead of overwriting our view.
  if (record.health == LcHealth::kHealthy) {
    record.used = data.used;
  } else {
    record.used = (record.used + data.used).scaled(0.5);
  }
  record.draining = data.draining;
  // Reconcile the VM set: adopt new VMs (e.g. inherited after a GM failure),
  // drop those the LC no longer reports, update demand estimators.
  std::vector<VmId>& reported = reported_scratch_;
  reported.clear();
  for (const auto& usage : data.vms) {
    // Duplicate resolution: a VM this GM already records on a *different* LC
    // is an orphan copy (e.g. a StartVm that landed right before a partition
    // cut the response — the GM's abort was lost with the partition and the
    // VM was legitimately re-placed elsewhere). Migration is the one legal
    // reason for two copies, so both sides must be non-migrating before the
    // reported copy is condemned. Keeping the recorded copy is the
    // deterministic choice; either satisfies the client's submission.
    if (!usage.migrating && record.vms.count(usage.vm) == 0) {
      // A copy we are still placing is not adopted either way — the pending
      // StartVm callback records it on success or condemns it on timeout.
      if (inflight_placements_.count({data.lc, usage.vm}) > 0) continue;
      // A copy we already aborted (StartVm timeout) is not re-adopted — the
      // report raced the StopVm. Re-send the abort instead: if the first one
      // was lost the condemned copy would otherwise run forever.
      if (condemned_vms_.count({data.lc, usage.vm}) > 0) {
        stop_vm(data.lc, usage.vm);
        continue;
      }
      bool orphan = false;
      for (const auto& [other_addr, other_record] : lcs_) {
        if (other_addr == data.lc) continue;
        const auto dup = other_record.vms.find(usage.vm);
        if (dup != other_record.vms.end() && !dup->second.migrating) {
          orphan = true;
          break;
        }
      }
      if (orphan) {
        bump("gm.duplicates_resolved");
        trace_event("gm.duplicate_resolved", "vm=" + std::to_string(usage.vm));
        stop_vm(data.lc, usage.vm);
        continue;  // not adopted: the next report no longer lists it
      }
    }
    reported.push_back(usage.vm);
    auto [vm_it, inserted] = record.vms.try_emplace(usage.vm);
    if (inserted) {
      vm_it->second.estimator = ResourceEstimator(config_.estimator_window);
      if (usage.migrating) {
        // Failover reconciliation: the previous GM commanded this migration;
        // we inherit it in flight and let the idempotent MigrationDone /
        // adopt / StopVm paths resolve it rather than interfering.
        bump("gm.migrations_inherited");
        trace_event("gm.migration_inherited", "vm=" + std::to_string(usage.vm));
      }
    }
    vm_it->second.requested = usage.requested;
    vm_it->second.migrating = usage.migrating;
    vm_it->second.estimator.add(usage.used);
  }
  std::sort(reported.begin(), reported.end());
  for (auto vm_it = record.vms.begin(); vm_it != record.vms.end();) {
    if (!std::binary_search(reported.begin(), reported.end(), vm_it->first)) {
      vm_it = record.vms.erase(vm_it);
    } else {
      ++vm_it;
    }
  }
}

void GroupManager::gm_check_lc_liveness() {
  const sim::Time window =
      config_.lc_heartbeat_period * config_.heartbeat_timeout_factor;
  std::vector<net::Address> failed;
  for (const auto& [addr, lc] : lcs_) {
    if (lc.power != LcPower::kOn) continue;  // suspended nodes are silent
    if (now() - lc.last_heartbeat > window) failed.push_back(addr);
  }
  for (net::Address addr : failed) on_lc_failed(addr);
}

void GroupManager::on_lc_failed(net::Address lc) {
  const auto it = lcs_.find(lc);
  if (it == lcs_.end()) return;
  bump("gm.lc_failures_detected");
  trace_event("gm.lc_failed");
  // Paper §II.E: the LC's contact information is invalidated; its VMs are
  // terminated. With the snapshot feature enabled the GM reschedules them.
  std::vector<VmDescriptor> to_reschedule;
  if (config_.reschedule_failed_vms) {
    for (const auto& [id, vm] : it->second.vms) {
      if (vm.has_descriptor) to_reschedule.push_back(vm.descriptor);
    }
  }
  forget_lc(lc);
  for (const VmDescriptor& vm : to_reschedule) {
    bump("gm.vms_rescheduled");
    reschedule_vm(vm);
  }
}

void GroupManager::reschedule_vm(const VmDescriptor& vm) {
  PlacementRequest req;
  req.vm = vm;
  // Run it through our own placement path (epoch 0: local authority, not a
  // GL dispatch); nobody waits for the answer.
  handle_placement(req, 0, {}, net::Responder{});
}

// ---------------------------------------------------------------------------
// Gray-failure detection and containment
// ---------------------------------------------------------------------------

std::size_t GroupManager::probation_count() const {
  std::size_t n = 0;
  for (const auto& [addr, lc] : lcs_) {
    if (lc.health == LcHealth::kProbation) ++n;
  }
  return n;
}

std::size_t GroupManager::quarantined_count() const {
  std::size_t n = 0;
  for (const auto& [addr, lc] : lcs_) {
    if (lc.health == LcHealth::kQuarantined) ++n;
  }
  return n;
}

int GroupManager::lc_health_of(net::Address lc) const {
  const auto it = lcs_.find(lc);
  if (it == lcs_.end()) return -1;
  switch (it->second.health) {
    case LcHealth::kHealthy: return 0;
    case LcHealth::kProbation: return 1;
    case LcHealth::kQuarantined: return 2;
  }
  return -1;
}

void GroupManager::gm_probe_peers() {
  // The GL probes its GMs; a GM probes its powered-on LCs. Probes are
  // idempotent, which makes them the canonical hedged-RPC site: a hedge
  // keeps one flaky link from polluting the latency baseline, while a
  // genuinely slow *node* is slow on both attempts and still scores high.
  std::vector<net::Address> targets;
  if (term_) {
    for (const auto& [addr, record] : term_->gms) targets.push_back(addr);
  } else {
    for (auto&& [addr, lc] : lcs_) {
      if (lc.health == LcHealth::kQuarantined) {
        // Quarantine rests the node for the dwell window. Past it, wake the
        // node back up — reinstatement needs fresh probe evidence.
        if (now() - lc.quarantined_at < config_.gray.reinstate_after_s) continue;
        if (lc.power == LcPower::kSuspended) {
          gm_wake_lc(addr);
          continue;
        }
      }
      if (lc.power != LcPower::kOn) continue;
      targets.push_back(addr);
    }
  }
  for (const net::Address target : targets) {
    telemetry::count(tel(), hot_.probes);
    const sim::Time sent = now();
    endpoint_.call_with_hedging(
        target, std::make_shared<ProbeRequest>(), config_.gray.probe_timeout,
        net::HedgePolicy{}, [this, target, sent](bool ok, const net::MsgPtr& reply) {
      (void)reply;
      // A timeout carries no latency information; hard failures belong to
      // the heartbeat liveness machinery, not the slowness scorer.
      if (!ok) return;
      scorer_.add_sample(target, obs::SlownessMetric::kProbe, now() - sent);
    });
  }
  // Scoring uses the samples of previous rounds (this round's replies are
  // still in flight) — a consistent one-round lag.
  gm_evaluate_slowness();
}

void GroupManager::gm_evaluate_slowness() {
  scorer_.evaluate(now());
  if (term_) {
    gl_flag_slow_gms();
  } else {
    apply_containment();
  }
}

void GroupManager::apply_containment() {
  std::size_t quarantined = quarantined_count();
  for (auto&& [addr, lc] : lcs_) {
    const bool slow = scorer_.flagged(addr);
    switch (lc.health) {
      case LcHealth::kHealthy:
        if (slow) {
          lc.health = LcHealth::kProbation;
          lc.probation_since = now();
          bump("gm.lc_probations");
          trace_event("gm.lc_probation", "lc=" + std::to_string(addr));
        }
        break;
      case LcHealth::kProbation:
        if (!slow) {
          // Cleared below the hysteresis threshold: quiet reinstatement.
          lc.health = LcHealth::kHealthy;
          bump("gm.lc_probation_cleared");
          trace_event("gm.lc_probation_cleared", "lc=" + std::to_string(addr));
        } else if (now() - lc.probation_since >= config_.gray.quarantine_after_s) {
          // Sustained degradation escalates — but containment must never
          // amplify an outage: cap the quarantined fraction of the group.
          // Floor of one so small groups can still quarantine their one bad
          // node; the guard exists to stop avalanches, not singletons.
          const auto cap = std::max<std::size_t>(
              1, static_cast<std::size_t>(config_.gray.max_quarantined_fraction *
                                          static_cast<double>(lcs_.size())));
          if (quarantined + 1 > cap) {
            bump("gm.quarantines_deferred");
          } else {
            lc.health = LcHealth::kQuarantined;
            lc.quarantined_at = now();
            lc.clean_evals = 0;
            ++lc.quarantine_count;
            ++quarantined;
            if (lc.quarantine_count > 1) bump("gm.quarantine_flaps");
            bump("gm.lc_quarantines");
            trace_event("gm.lc_quarantined", "lc=" + std::to_string(addr));
            evacuate_lc(addr);
          }
        }
        break;
      case LcHealth::kQuarantined:
        if (now() - lc.quarantined_at < config_.gray.reinstate_after_s) {
          // Emptying-out phase: re-try the evacuation for VMs that had no
          // headroom earlier, then park the node in low power.
          if (lc.power == LcPower::kOn) {
            if (!lc.vms.empty()) {
              evacuate_lc(addr);
            } else {
              gm_suspend_lc(addr);
            }
          }
          lc.clean_evals = 0;
        } else if (lc.power == LcPower::kOn) {
          // Re-probing phase (gm_probe_peers woke the node): reinstate after
          // enough consecutive clean evaluations.
          if (slow) {
            lc.clean_evals = 0;
          } else if (++lc.clean_evals >= config_.gray.reinstate_clean_probes) {
            lc.health = LcHealth::kHealthy;
            lc.quarantined_at = 0.0;
            bump("gm.lc_reinstatements");
            trace_event("gm.lc_reinstated", "lc=" + std::to_string(addr));
          }
        }
        break;
    }
  }
}

void GroupManager::stamp_lease(net::Message& msg, net::Address lc) const {
  const auto it = lcs_.find(lc);
  msg.epoch = it != lcs_.end() ? it->second.lease_epoch : 0;
}

bool GroupManager::handle_stale_lc_reply(const net::MsgPtr& reply, net::Address lc) {
  const auto* stale = net::msg_cast<StaleEpochError>(reply);
  if (stale == nullptr) return false;
  // The LC joined a successor GM under a newer lease; it is no longer ours.
  // Unlike a liveness failure its VMs are alive and managed elsewhere, so
  // drop the record without rescheduling anything.
  if (forget_lc(lc)) {
    bump("gm.lcs_fenced_off");
    trace_event("gm.lc_fenced_off");
  }
  return true;
}

bool GroupManager::forget_lc(net::Address lc) {
  const bool managed = lcs_.erase(lc) > 0;
  scorer_.forget(lc);
  std::erase_if(condemned_vms_, [lc](const auto& p) { return p.first == lc; });
  return managed;
}

void GroupManager::resign_lcs() {
  // The LCs rejoin another GM under fresh leases, which fences off any
  // command we might still send.
  if (!lcs_.empty()) {
    auto resign = std::make_shared<GmResign>();
    resign->gm = endpoint_.address();
    endpoint_.multicast(gm_group_, resign);
  }
  lcs_.clear();
  condemned_vms_.clear();
  inflight_placements_.clear();
}

void GroupManager::stop_vm(net::Address lc, VmId vm) {
  auto stop = std::make_shared<StopVmRequest>();
  stop->vm = vm;
  stamp_lease(*stop, lc);
  endpoint_.send(lc, stop);
}

void GroupManager::fail_placement(telemetry::SpanContext span, std::string_view status,
                                  const net::Responder& responder) {
  bump("gm.placements_failed");
  telemetry::end_span(tel(), span, status);
  auto resp = std::make_shared<PlacementResponse>();
  resp->ok = false;
  responder.respond(resp);
}

// ---------------------------------------------------------------------------
// GM role: placement
// ---------------------------------------------------------------------------

void GroupManager::handle_placement(const PlacementRequest& req, std::uint64_t epoch,
                                    telemetry::SpanContext ctx,
                                    net::Responder responder) {
  // Tripwire at the apply site: admit() must have run before we get here.
  gl_fence_.note_applied(epoch);
  const auto span = telemetry::begin_span(tel(), ctx, "gm.place", name(),
                                          "vm=" + std::to_string(req.vm.id));
  // Idempotency: if we already host this VM (the GL's previous attempt whose
  // response got lost), report where it lives instead of starting a copy.
  for (const auto& [addr, lc_record] : lcs_) {
    if (lc_record.vms.count(req.vm.id) > 0) {
      auto resp = std::make_shared<PlacementResponse>();
      resp->ok = true;
      resp->lc = addr;
      telemetry::end_span(tel(), span, "replayed");
      responder.respond(resp);
      return;
    }
  }
  const net::Address lc = placement_policy_->choose(req.vm, lc_infos());
  if (lc != net::kNullAddress) {
    place_on(lc, req.vm, span, responder);
    return;
  }
  if (config_.energy_savings) {
    try_wakeup_then_place(req.vm, span, responder);
    return;
  }
  fail_placement(span, "failed", responder);
}

void GroupManager::place_on(net::Address lc, const VmDescriptor& vm,
                            telemetry::SpanContext span, net::Responder responder) {
  // A deliberate re-placement on this LC supersedes any earlier abort of the
  // same VM there.
  condemned_vms_.erase({lc, vm.id});
  // Reserve optimistically at command time so concurrent placements in the
  // same scheduling window do not all pick the same LC; rolled back if the
  // LC refuses. The LC's own monitoring reports (which include booting VMs)
  // remain the ground truth.
  const auto pre = lcs_.find(lc);
  if (pre != lcs_.end()) {
    pre->second.reserved += vm.requested;
    pre->second.idle_since = -1.0;
  }
  auto start = std::make_shared<StartVmRequest>();
  start->vm = vm;
  start->ctx = span;
  stamp_lease(*start, lc);
  const sim::Time timeout = config_.vm_boot_time + config_.rpc_timeout;
  const sim::Time sent = now();
  inflight_placements_.insert({lc, vm.id});
  endpoint_.call(lc, start, timeout,
                 [this, lc, vm, span, responder, sent](bool ok, const net::MsgPtr& reply) {
    inflight_placements_.erase({lc, vm.id});
    if (ok && handle_stale_lc_reply(reply, lc)) {
      fail_placement(span, "fenced", responder);
      return;
    }
    const auto* resp = ok ? net::msg_cast<StartVmResponse>(reply) : nullptr;
    const auto it = lcs_.find(lc);
    if (resp != nullptr && resp->ok) {
      bump("gm.placements_ok");
      // StartVm ack latency is boot-time dominated, which makes it a clean
      // per-LC slowdown sample (peer-relative, so fleet-wide load cancels).
      scorer_.add_sample(lc, obs::SlownessMetric::kStartVm, now() - sent);
      if (it != lcs_.end()) {
        VmRecord record;
        record.requested = vm.requested;
        record.estimator = ResourceEstimator(config_.estimator_window);
        record.has_descriptor = true;
        record.descriptor = vm;
        it->second.vms[vm.id] = std::move(record);
        it->second.idle_since = -1.0;
      }
      trace_event("gm.vm_placed");
      telemetry::end_span(tel(), span, "ok");
      auto placement = std::make_shared<PlacementResponse>();
      placement->ok = true;
      placement->lc = lc;
      responder.respond(placement);
      return;
    }
    if (it != lcs_.end()) release(it->second.reserved, vm.requested);
    if (resp == nullptr) {
      // Timeout: the LC may have started the VM and only the response was
      // lost — or (fail-slow) is still booting it. Abort the potential
      // orphan and condemn the (LC, VM) pair: a slow-but-alive LC keeps
      // monitoring-reporting the doomed copy until the abort lands, and
      // adopting that report would let the idempotent replay path ack a
      // submission whose VM this StopVm is about to kill.
      condemned_vms_.insert({lc, vm.id});
      if (it != lcs_.end()) it->second.vms.erase(vm.id);
      stop_vm(lc, vm.id);
    }
    fail_placement(span, "failed", responder);
  });
}

void GroupManager::try_wakeup_then_place(const VmDescriptor& vm,
                                         telemetry::SpanContext span,
                                         net::Responder responder) {
  // Find a suspended LC that could hold the VM once awake.
  net::Address target = net::kNullAddress;
  for (const auto& [addr, lc] : lcs_) {
    if (lc.power != LcPower::kSuspended) continue;
    if (lc.health != LcHealth::kHealthy) continue;  // quarantined: stays down
    if (vm.requested.fits_within(lc.capacity)) {
      target = addr;
      break;
    }
  }
  if (target == net::kNullAddress) {
    fail_placement(span, "failed", responder);
    return;
  }
  gm_wake_lc(target, span, [this, target, vm, span, responder](std::string_view status) {
    if (status == "ok") {
      place_on(target, vm, span, responder);
    } else {
      fail_placement(span, status, responder);
    }
  });
}

// ---------------------------------------------------------------------------
// GM role: anomalies, relocation, reconfiguration
// ---------------------------------------------------------------------------

std::vector<VmLoad> GroupManager::vm_loads(const LcRecord& record) const {
  std::vector<VmLoad> out;
  out.reserve(record.vms.size());
  for (const auto& [id, vm] : record.vms) {
    if (vm.migrating) continue;  // already moving; not relocation material
    out.push_back(VmLoad{id, vm.demand(), vm.requested});
  }
  return out;
}

void GroupManager::handle_anomaly(const AnomalyEvent& event) {
  const auto it = lcs_.find(event.lc);
  if (it == lcs_.end()) return;
  const LcInfo source = lc_info(event.lc, it->second);
  std::vector<LcInfo> others;
  for (const auto& [addr, lc] : lcs_) {
    if (addr == event.lc || !lc.takes_new_work()) continue;
    others.push_back(lc_info(addr, lc));
  }

  std::vector<RelocationMove> moves;
  if (event.kind == AnomalyEvent::Kind::kOverload) {
    bump("gm.overload_events");
    trace_event("gm.overload_event");
    moves = plan_overload_relocation(source, vm_loads(it->second), others,
                                     config_.overload_threshold);
  } else {
    bump("gm.underload_events");
    trace_event("gm.underload_event");
    moves = plan_underload_relocation(source, vm_loads(it->second), others,
                                      config_.underload_threshold,
                                      config_.overload_threshold);
  }
  execute_moves(moves);
}

void GroupManager::execute_moves(const std::vector<RelocationMove>& moves) {
  for (const RelocationMove& move : moves) {
    bump("gm.migrations_commanded");
    auto req = std::make_shared<MigrateVmRequest>();
    req->vm = move.vm;
    req->destination = move.to;
    stamp_lease(*req, move.from);
    const net::Address source = move.from;
    endpoint_.call(source, req, config_.rpc_timeout,
                   [this, source](bool ok, const net::MsgPtr& reply) {
      // The ack only confirms the migration started; completion arrives
      // as a MigrationDone one-way message.
      if (ok) handle_stale_lc_reply(reply, source);
    });
  }
}

void GroupManager::handle_migration_done(const MigrationDone& done) {
  // Actual/predicted pre-copy ratio: ~1 on a healthy source, proportional to
  // the slowdown on a fail-slow one. Dimensionless, so peers are directly
  // comparable regardless of VM size.
  if (done.ok && done.expected_s > 1e-9 && lcs_.count(done.from) > 0) {
    scorer_.add_sample(done.from, obs::SlownessMetric::kMigration,
                       done.duration_s / done.expected_s);
  }
  if (!done.ok) {
    // The source reverted (or lost) the VM. The destination may still hold a
    // copy if only the adopt confirmation was lost — command it away so a
    // failed migration can never leave two running instances behind.
    if (done.to != net::kNullAddress) stop_vm(done.to, done.vm);
    return;
  }
  bump("gm.migrations_completed");
  trace_event("gm.migration_done");
  const auto from_it = lcs_.find(done.from);
  const auto to_it = lcs_.find(done.to);
  if (from_it == lcs_.end()) return;
  const auto vm_it = from_it->second.vms.find(done.vm);
  if (vm_it == from_it->second.vms.end()) return;
  if (to_it != lcs_.end()) {
    to_it->second.vms[done.vm] = vm_it->second;
    to_it->second.reserved += vm_it->second.requested;
    to_it->second.idle_since = -1.0;
  }
  release(from_it->second.reserved, vm_it->second.requested);
  from_it->second.vms.erase(vm_it);
}

void GroupManager::handle_vm_terminated(const VmTerminated& done) {
  condemned_vms_.erase({done.lc, done.vm});
  const auto it = lcs_.find(done.lc);
  if (it == lcs_.end()) return;
  const auto vm_it = it->second.vms.find(done.vm);
  if (vm_it == it->second.vms.end()) return;
  release(it->second.reserved, vm_it->second.requested);
  it->second.vms.erase(vm_it);
}

void GroupManager::gm_reconfigure() {
  if (term_ || lcs_.empty()) return;
  // Build the packing instance over the powered-on LCs.
  std::vector<net::Address> hosts;
  std::vector<std::pair<net::Address, VmId>> vm_keys;
  consolidation::Instance instance;
  for (const auto& [addr, lc] : lcs_) {
    if (!lc.takes_new_work()) continue;
    hosts.push_back(addr);
    instance.host_capacities.push_back(lc.capacity);
  }
  if (hosts.empty()) return;
  std::map<net::Address, std::size_t> host_index;
  for (std::size_t h = 0; h < hosts.size(); ++h) host_index[hosts[h]] = h;

  consolidation::Placement current;
  std::vector<consolidation::HostIndex> current_raw;
  for (const auto& [addr, lc] : lcs_) {
    if (!lc.takes_new_work()) continue;
    for (const auto& [id, vm] : lc.vms) {
      instance.vm_demands.push_back(vm.requested);
      vm_keys.emplace_back(addr, id);
      current_raw.push_back(static_cast<consolidation::HostIndex>(host_index[addr]));
    }
  }
  if (instance.vm_demands.empty()) return;
  current = consolidation::Placement(instance.vm_count());
  for (std::size_t i = 0; i < current_raw.size(); ++i) current.assign(i, current_raw[i]);

  consolidation::Placement target;
  switch (config_.consolidation) {
    case ConsolidationKind::kFfd:
      target = consolidation::first_fit_decreasing(instance);
      break;
    case ConsolidationKind::kAco: {
      consolidation::AcoParams params;
      params.ants = config_.aco_ants;
      params.cycles = config_.aco_cycles;
      params.seed = engine().rng().next_u64();
      target = consolidation::AcoConsolidation(params).solve(instance).placement;
      break;
    }
    case ConsolidationKind::kNone:
      return;
  }
  if (!target.feasible(instance)) return;
  // Accept only strict improvements: the target must use fewer hosts.
  if (target.hosts_used() >= current.hosts_used()) return;

  bump("gm.reconfigurations");
  trace_event("gm.reconfiguration");
  const auto plan = consolidation::diff_placements(current, target);
  std::vector<RelocationMove> moves;
  moves.reserve(plan.size());
  for (const auto& migration : plan.migrations) {
    moves.push_back(RelocationMove{vm_keys[migration.vm].second,
                                   hosts[static_cast<std::size_t>(migration.from)],
                                   hosts[static_cast<std::size_t>(migration.to)]});
  }
  execute_moves(moves);
}

// ---------------------------------------------------------------------------
// GM role: energy management
// ---------------------------------------------------------------------------

void GroupManager::gm_energy_check() {
  if (term_) return;
  for (auto&& [addr, lc] : lcs_) {
    // Non-healthy nodes belong to the containment machinery, which owns
    // their power state (quarantine suspends, reinstatement wakes).
    if (!lc.takes_new_work()) continue;
    const bool idle = lc.vms.empty();
    if (!idle) {
      lc.idle_since = -1.0;
      continue;
    }
    if (lc.idle_since < 0.0) {
      lc.idle_since = now();
      continue;
    }
    if (now() - lc.idle_since < config_.idle_threshold) continue;
    // Idle past the administrator threshold: transition to low power.
    gm_suspend_lc(addr);
  }
}

void GroupManager::gm_suspend_lc(net::Address target) {
  const auto it = lcs_.find(target);
  if (it == lcs_.end()) return;
  bump("gm.suspends");
  it->second.power = LcPower::kSuspended;  // optimistic; reverted on refusal
  trace_event("gm.suspend");
  auto req = std::make_shared<SuspendRequest>();
  stamp_lease(*req, target);
  endpoint_.call(target, req, config_.rpc_timeout,
                 [this, target](bool ok, const net::MsgPtr& reply) {
    if (ok && handle_stale_lc_reply(reply, target)) return;
    const auto* resp = ok ? net::msg_cast<SuspendResponse>(reply) : nullptr;
    if (resp == nullptr || !resp->ok) {
      const auto it = lcs_.find(target);
      if (it != lcs_.end() && it->second.power == LcPower::kSuspended) {
        it->second.power = LcPower::kOn;
        it->second.last_heartbeat = now();
        it->second.idle_since = -1.0;
      }
    }
  });
}

void GroupManager::gm_wake_lc(net::Address target, telemetry::SpanContext span,
                              std::function<void(std::string_view status)> then) {
  const auto it = lcs_.find(target);
  if (it == lcs_.end()) return;
  bump("gm.wakeups");
  it->second.power = LcPower::kWaking;
  trace_event("gm.wakeup");
  auto wake = std::make_shared<WakeupRequest>();
  wake->ctx = span;
  stamp_lease(*wake, target);
  const sim::Time timeout = 30.0 + config_.rpc_timeout;  // covers resume latency
  endpoint_.call(target, wake, timeout,
                 [this, target, then = std::move(then)](bool ok, const net::MsgPtr& reply) {
    if (ok && handle_stale_lc_reply(reply, target)) {
      if (then) then("fenced");
      return;
    }
    const auto* resp = ok ? net::msg_cast<WakeupResponse>(reply) : nullptr;
    const auto it = lcs_.find(target);
    const bool woke = resp != nullptr && resp->ok && it != lcs_.end();
    if (woke) {
      it->second.power = LcPower::kOn;
      it->second.last_heartbeat = now();
      it->second.idle_since = -1.0;
    } else if (it != lcs_.end() && it->second.power == LcPower::kWaking) {
      // Revert only a wake still pending: an LC forgotten and rejoined
      // meanwhile keeps the power its new record holds.
      it->second.power = LcPower::kSuspended;
    }
    if (then) then(woke ? "ok" : "wakeup_failed");
  });
}

std::size_t GroupManager::scale_wake(std::size_t n) {
  std::size_t commanded = 0;
  for (const auto& [addr, lc] : lcs_) {
    if (commanded >= n) break;
    if (lc.power != LcPower::kSuspended || lc.draining ||
        lc.health != LcHealth::kHealthy) {
      continue;
    }
    gm_wake_lc(addr);
    ++commanded;
  }
  return commanded;
}

std::size_t GroupManager::scale_suspend(std::size_t n) {
  std::vector<net::Address> idle;
  for (const auto& [addr, lc] : lcs_) {
    if (idle.size() >= n) break;
    if (!lc.takes_new_work() || !lc.vms.empty()) continue;
    idle.push_back(addr);
  }
  for (net::Address addr : idle) gm_suspend_lc(addr);
  return idle.size();
}

// ---------------------------------------------------------------------------
// GM role: maintenance (rolling upgrades)
// ---------------------------------------------------------------------------

void GroupManager::begin_drain() {
  if (draining_ || !started_) return;
  draining_ = true;
  bump("gm.drains");
  trace_event("gm.draining");
  // A draining leader hands off first so the fleet keeps a GL while this
  // node restarts.
  step_down("drain");
  resign_lcs();
}

void GroupManager::cancel_drain() {
  if (!draining_) return;
  draining_ = false;
  trace_event("gm.drain_cancelled");
}

std::size_t GroupManager::evacuate_lc(net::Address source) {
  const auto source_it = lcs_.find(source);
  if (source_it == lcs_.end()) return 0;
  // First-fit each VM onto another powered-on, non-draining LC, accounting
  // for the headroom already promised to earlier moves in this plan.
  std::vector<RelocationMove> moves;
  std::map<net::Address, ResourceVector> planned;
  for (const auto& [id, vm] : source_it->second.vms) {
    if (vm.migrating) continue;  // already on the wire
    for (const auto& [addr, lc] : lcs_) {
      if (addr == source || !lc.takes_new_work()) continue;
      if ((lc.reserved + planned[addr] + vm.requested).fits_within(lc.capacity)) {
        planned[addr] += vm.requested;
        moves.push_back(RelocationMove{id, source, addr});
        break;
      }
    }
  }
  if (!moves.empty()) {
    trace_event("gm.evacuate", "moves=" + std::to_string(moves.size()));
    execute_moves(moves);
  }
  return moves.size();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

void GroupManager::fail() {
  trace_event("gm.fail");
  endpoint_.go_down();
  election_.crash();  // coordination session will expire -> successor elected
  resign_lcs();        // the endpoint is down: the LCs are forgotten, not told
  term_.reset();       // a crashed GL's reconcile span is dropped, not ended
  scorer_.clear();
  started_ = false;
  current_gl_ = net::kNullAddress;
  crash();
}

void GroupManager::restart() {
  recover();
  election_.recover();
  endpoint_.go_up();
  gl_fence_ = {};
  my_epoch_ = 0;
  draining_ = false;
  // New life, new summary-stream incarnation: a delta duplicated from the
  // previous life can never collide with the fresh sequence numbers.
  ++summary_stream_;
  trace_event("gm.restart");
  start();
}

}  // namespace snooze::core
