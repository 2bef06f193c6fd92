#include "core/local_controller.hpp"

#include <algorithm>

#include "net/pool.hpp"
#include "util/logging.hpp"

namespace snooze::core {

using energy::PowerState;

LocalController::LocalController(sim::Engine& engine, net::Network& network,
                                 hypervisor::HostSpec host_spec, SnoozeConfig config,
                                 net::GroupId gl_heartbeat_group, sim::Trace* trace)
    : sim::Actor(engine, host_spec.name),
      endpoint_(engine, network, network.allocate_address(), host_spec.name),
      host_(std::move(host_spec), engine.now()),
      config_(config),
      gl_group_(gl_heartbeat_group),
      trace_(trace),
      running_vms_(engine.now(), 0.0) {
  migration_model_.bandwidth_mbps = config_.migration_bandwidth_mbps;
  endpoint_.set_message_handler([this](const net::Envelope& env) { handle_oneway(env); });
  endpoint_.set_request_handler(
      [this](const net::Envelope& env, net::Responder r) { handle_request(env, r); });
}

void LocalController::trace_event(std::string_view kind, std::string_view detail) {
  if (trace_) trace_->record(name(), kind, detail);
}

void LocalController::start() {
  state_ = State::kDiscovering;
  host_.set_power_state(now(), PowerState::kOn);
  endpoint_.network().join_group(gl_group_, endpoint_.address());
  start_timers();
  trace_event("lc.start");
}

void LocalController::start_timers() {
  every(config_.lc_heartbeat_period, [this] {
    send_heartbeat();
    return true;
  });
  every(config_.lc_monitor_period, [this] {
    send_monitor_data();
    return true;
  });
  every(config_.anomaly_check_period, [this] {
    check_anomalies();
    return true;
  });
  every(config_.lc_heartbeat_period, [this] {
    check_gm_liveness();
    return true;
  });
}

// --- self-organization -------------------------------------------------------

void LocalController::handle_oneway(const net::Envelope& env) {
  if (const auto* gl_hb = net::msg_cast<GlHeartbeat>(env.payload)) {
    handle_gl_heartbeat(*gl_hb);
    return;
  }
  if (net::msg_cast<GmHeartbeat>(env.payload) != nullptr) {
    handle_gm_heartbeat();
    return;
  }
  if (net::msg_cast<GmResign>(env.payload) != nullptr) {
    if (state_ == State::kAssigned) become_discovering("gm resigned");
    return;
  }
  if (const auto* stop = net::msg_cast<StopVmRequest>(env.payload)) {
    // StopVm is authority-bearing: a deposed GM must not kill VMs the
    // successor now manages. One-way, so a stale sender gets no error reply —
    // it learns of its demotion from its next request/response exchange.
    if (!gm_fence_.admit(env.epoch)) {
      bump("fence.rejected");
      trace_event("lc.fence_rejected", "stop_vm epoch=" + std::to_string(env.epoch));
      return;
    }
    gm_fence_.note_applied(env.epoch);
    if (serving()) terminate_vm(stop->vm);
    return;
  }
}

void LocalController::handle_gl_heartbeat(const GlHeartbeat& hb) {
  // Ignore heartbeats from a deposed GL so a healed partition cannot steer
  // discovering LCs back to the stale leader.
  if (hb.epoch != 0 && hb.epoch < gl_epoch_seen_) return;
  gl_epoch_seen_ = std::max(gl_epoch_seen_, hb.epoch);
  gl_ = hb.gl;
  if (state_ != State::kDiscovering) return;
  state_ = State::kJoining;
  request_assignment();
}

void LocalController::request_assignment() {
  if (state_ != State::kJoining || !serving()) return;
  auto req = std::make_shared<AssignLcRequest>();
  req->lc = endpoint_.address();
  req->capacity = host_.capacity();
  endpoint_.call(gl_, req, config_.rpc_timeout,
                 [this](bool ok, const net::MsgPtr& reply) {
    const auto* resp = ok ? net::msg_cast<AssignLcResponse>(reply) : nullptr;
    if (resp == nullptr || !resp->ok) {
      // GL unreachable or no GM available yet: go back to listening.
      become_discovering("assignment failed");
      return;
    }
    join_gm(resp->gm);
  });
}

void LocalController::join_gm(net::Address gm) {
  auto req = std::make_shared<LcJoinRequest>();
  req->lc = endpoint_.address();
  req->capacity = host_.capacity();
  // Mint a fresh lease for this GM. Raising our high-water immediately
  // fences off whichever GM held the previous lease, even if this join's
  // response is lost in transit.
  req->lease_epoch = ++lease_counter_;
  gm_fence_.high_water = lease_counter_;
  endpoint_.call(gm, req, config_.rpc_timeout,
                 [this, gm](bool ok, const net::MsgPtr& reply) {
    const auto* resp = ok ? net::msg_cast<LcJoinResponse>(reply) : nullptr;
    if (resp == nullptr || !resp->ok) {
      become_discovering("join rejected");
      return;
    }
    gm_ = gm;
    gm_group_ = resp->heartbeat_group;
    state_ = State::kAssigned;
    last_gm_heartbeat_ = now();
    endpoint_.network().leave_group(gl_group_, endpoint_.address());
    endpoint_.network().join_group(gm_group_, endpoint_.address());
    trace_event("lc.joined");
    // Push a first monitoring sample so the GM can schedule onto us at once.
    send_monitor_data();
  });
}

void LocalController::become_discovering(const char* reason) {
  if (state_ == State::kStopped) return;
  trace_event("lc.rejoin", reason);
  if (gm_group_ != 0) endpoint_.network().leave_group(gm_group_, endpoint_.address());
  gm_ = net::kNullAddress;
  gm_group_ = 0;
  state_ = State::kDiscovering;
  endpoint_.network().join_group(gl_group_, endpoint_.address());
}

void LocalController::handle_gm_heartbeat() {
  if (state_ == State::kAssigned) last_gm_heartbeat_ = now();
}

// --- maintenance (rolling upgrades) ------------------------------------------

void LocalController::begin_drain() {
  if (draining_ || state_ == State::kStopped) return;
  draining_ = true;
  bump("lc.drains");
  trace_event("lc.draining");
  // Push the flag to the GM immediately so its next placement skips us
  // rather than waiting out a monitor period.
  send_monitor_data();
}

void LocalController::cancel_drain() {
  if (!draining_) return;
  draining_ = false;
  trace_event("lc.drain_cancelled");
  if (state_ == State::kAssigned && serving()) send_monitor_data();
}

void LocalController::check_gm_liveness() {
  if (state_ != State::kAssigned || !serving()) return;
  const sim::Time window =
      config_.gm_heartbeat_period * config_.heartbeat_timeout_factor;
  if (now() - last_gm_heartbeat_ > window) {
    become_discovering("gm heartbeat timeout");
  }
}

// --- monitoring ---------------------------------------------------------------

void LocalController::send_heartbeat() {
  if (state_ != State::kAssigned || !serving()) return;
  telemetry::count(tel(), heartbeats_);
  auto hb = net::make_message<LcHeartbeat>();
  hb->lc = endpoint_.address();
  endpoint_.send(gm_, hb);
}

void LocalController::send_monitor_data() {
  host_.touch(now());  // keep the energy meter tracking the current draw
  if (state_ != State::kAssigned || !serving()) return;
  telemetry::count(tel(), monitor_reports_);
  auto data = net::make_message<LcMonitorData>();
  data->lc = endpoint_.address();
  data->capacity = host_.capacity();
  data->reserved = host_.reserved();
  // Under CPU steal the node *delivers* only (1-steal) of what its VMs
  // consume — the monitoring stream under-reports exactly the way a stolen
  // node's perf counters do, which is what makes gray failures hard to see.
  data->used = host_.used(now()).scaled(1.0 - cpu_steal_);
  data->vms.reserve(host_.vm_count());
  for (const auto& [id, vm] : host_.vms()) {
    const auto meta = vm_meta_.find(id);
    const bool migrating = meta != vm_meta_.end() && meta->second.migrating;
    data->vms.push_back(
        LcMonitorData::VmUsage{id, vm->spec().requested, vm->used(now()), migrating});
  }
  data->draining = draining_;
  endpoint_.send(gm_, data);
}

void LocalController::check_anomalies() {
  if (state_ != State::kAssigned || !serving()) return;
  const double utilization = host_.utilization(now());
  // Rate-limit anomaly reports: one per two check periods.
  if (now() - last_anomaly_ < 2.0 * config_.anomaly_check_period) return;
  AnomalyEvent::Kind kind;
  if (utilization > config_.overload_threshold) {
    kind = AnomalyEvent::Kind::kOverload;
  } else if (utilization < config_.underload_threshold && host_.vm_count() > 0) {
    kind = AnomalyEvent::Kind::kUnderload;
  } else {
    return;
  }
  last_anomaly_ = now();
  auto event = std::make_shared<AnomalyEvent>();
  event->lc = endpoint_.address();
  event->kind = kind;
  event->utilization = utilization;
  endpoint_.send(gm_, event);
  bump("lc.anomalies");
  trace_event(kind == AnomalyEvent::Kind::kOverload ? "lc.overload" : "lc.underload");
}

// --- command handling -----------------------------------------------------------

void LocalController::reject_stale(std::uint64_t epoch, net::Responder responder) {
  bump("fence.rejected");
  trace_event("lc.fence_rejected", "epoch=" + std::to_string(epoch));
  auto err = std::make_shared<StaleEpochError>();
  err->observed = gm_fence_.high_water;
  responder.respond(err);
}

void LocalController::handle_request(const net::Envelope& env, net::Responder responder) {
  // GM-authority commands (start / migrate / suspend / wakeup / power) carry
  // the sender's lease epoch; a deposed GM is turned away with a typed error
  // so it steps back instead of mutating VMs a successor now manages. Adopt
  // is LC-to-LC traffic and stays outside the lease domain (epoch 0).
  const bool authority = net::msg_cast<StartVmRequest>(env.payload) != nullptr ||
                         net::msg_cast<MigrateVmRequest>(env.payload) != nullptr ||
                         net::msg_cast<SuspendRequest>(env.payload) != nullptr ||
                         net::msg_cast<WakeupRequest>(env.payload) != nullptr;
  if (authority && !gm_fence_.admit(env.epoch)) {
    reject_stale(env.epoch, responder);
    return;
  }
  if (authority) gm_fence_.note_applied(env.epoch);
  // A suspended node services nothing but the wake-on-LAN packet.
  if (!serving()) {
    if (net::msg_cast<WakeupRequest>(env.payload) != nullptr) handle_wakeup(responder);
    return;
  }
  if (const auto* start = net::msg_cast<StartVmRequest>(env.payload)) {
    handle_start_vm(*start, env.ctx, responder);
  } else if (const auto* migrate = net::msg_cast<MigrateVmRequest>(env.payload)) {
    handle_migrate(*migrate, responder);
  } else if (const auto* adopt = net::msg_cast<AdoptVmRequest>(env.payload)) {
    handle_adopt(*adopt, responder);
  } else if (net::msg_cast<SuspendRequest>(env.payload) != nullptr) {
    handle_suspend(responder);
  } else if (net::msg_cast<WakeupRequest>(env.payload) != nullptr) {
    auto resp = std::make_shared<WakeupResponse>();
    resp->ok = true;  // already awake
    responder.respond(resp);
  } else if (net::msg_cast<ProbeRequest>(env.payload) != nullptr) {
    // Gray-failure latency probe: answer after this node's *effective*
    // service time, so the GM's peer-relative scorer observes the real
    // slowdown a gray node imposes on every operation.
    after(config_.gray.probe_service_time * effective_slowdown(), [responder] {
      responder.respond(std::make_shared<ProbeResponse>());
    });
  }
}

void LocalController::set_running_vms(double count) {
  // Mirror into the cluster-wide gauge before the local accumulator moves.
  telemetry::gauge_add(tel(), "cluster.running_vms", count - running_vms_.current());
  running_vms_.set(now(), count);
}

void LocalController::handle_start_vm(const StartVmRequest& req,
                                      telemetry::SpanContext ctx,
                                      net::Responder responder) {
  const auto span = telemetry::begin_span(tel(), ctx, "lc.start_vm", name(),
                                          "vm=" + std::to_string(req.vm.id));
  // A draining node accepts no new placements (it is emptying out for a
  // restart); in-flight outbound migrations still complete.
  if (draining_ || !host_.can_place(req.vm.requested)) {
    bump("lc.starts_rejected");
    telemetry::end_span(tel(), span, "rejected");
    auto resp = std::make_shared<StartVmResponse>();
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  // Reserve capacity immediately (kBooting), go Running after the boot delay.
  hypervisor::VmSpec spec;
  spec.id = req.vm.id;
  spec.requested = req.vm.requested;
  spec.memory_mb = req.vm.memory_mb;
  spec.dirty_rate_mbps = req.vm.dirty_rate_mbps;
  hypervisor::Vm& vm = host_.place(spec, make_trace(req.vm.trace));
  vm.set_state(hypervisor::VmState::kBooting);
  VmMeta meta;
  meta.descriptor = req.vm;
  vm_meta_[req.vm.id] = meta;

  const VmId id = req.vm.id;
  after(config_.vm_boot_time * effective_slowdown(), [this, id, span, responder] {
    hypervisor::Vm* booted = host_.find(id);
    if (booted == nullptr) {  // evicted meanwhile
      telemetry::end_span(tel(), span, "evicted");
      return;
    }
    booted->set_state(hypervisor::VmState::kRunning);
    set_running_vms(running_vms_.current() + 1.0);
    host_.touch(now());
    auto& meta_ref = vm_meta_[id];
    if (meta_ref.descriptor.lifetime_s > 0.0) {
      // CPU steal stretches runtime: (1-steal) delivered cycles per second
      // means 1/(1-steal) the wall time to finish the same work.
      const double stretched =
          meta_ref.descriptor.lifetime_s / std::max(1e-6, 1.0 - cpu_steal_);
      meta_ref.stop_at = now() + stretched;
      meta_ref.stop_event = after(stretched, [this, id] { terminate_vm(id); });
    }
    auto resp = std::make_shared<StartVmResponse>();
    resp->ok = true;
    responder.respond(resp);
    bump("lc.vms_started");
    telemetry::end_span(tel(), span, "ok");
    trace_event("lc.vm_started");
  });
}

void LocalController::terminate_vm(hypervisor::VmId vm) {
  auto evicted = host_.evict(vm);
  if (evicted == nullptr) return;
  if (evicted->state() == hypervisor::VmState::kRunning ||
      evicted->state() == hypervisor::VmState::kMigrating) {
    set_running_vms(std::max(0.0, running_vms_.current() - 1.0));
  }
  vm_meta_.erase(vm);
  host_.touch(now());
  auto done = std::make_shared<VmTerminated>();
  done->lc = endpoint_.address();
  done->vm = vm;
  endpoint_.send(gm_, done);
  bump("lc.vms_terminated");
  trace_event("lc.vm_terminated");
}

void LocalController::handle_migrate(const MigrateVmRequest& req, net::Responder responder) {
  hypervisor::Vm* vm = host_.find(req.vm);
  auto resp = std::make_shared<MigrateVmResponse>();
  const auto meta_it = vm_meta_.find(req.vm);
  if (vm == nullptr || meta_it == vm_meta_.end() || meta_it->second.migrating ||
      vm->state() != hypervisor::VmState::kRunning) {
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  resp->ok = true;
  responder.respond(resp);  // acknowledged: migration accepted

  meta_it->second.migrating = true;
  vm->set_state(hypervisor::VmState::kMigrating);
  // The migration link carries one transfer at a time; later requests queue.
  migration_queue_.emplace_back(req.vm, req.destination);
  if (!migration_active_) start_next_migration();
}

void LocalController::start_next_migration() {
  while (!migration_queue_.empty()) {
    const auto [vm, dest] = migration_queue_.front();
    migration_queue_.pop_front();
    if (host_.find(vm) == nullptr) continue;  // terminated while queued
    migration_active_ = true;
    run_migration(vm, dest);
    return;
  }
  migration_active_ = false;
}

void LocalController::run_migration(hypervisor::VmId id, net::Address dest) {
  hypervisor::Vm* vm = host_.find(id);
  if (vm == nullptr) {
    start_next_migration();
    return;
  }
  const auto cost =
      migration_model_.cost(vm->spec().memory_mb, vm->spec().dirty_rate_mbps);
  bump("lc.migrations_started");
  trace_event("lc.migration_start");

  // Pre-copy runs for cost.total_s (stretched on a gray node — a fail-slow
  // NIC/hypervisor transfers at a fraction of the modeled rate); then the
  // destination adopts the VM. The actual/expected ratio rides MigrationDone
  // to the GM as a slowdown sample.
  const double actual_s = cost.total_s * effective_slowdown();
  after(actual_s, [this, id, dest, cost, actual_s] {
    const auto it = vm_meta_.find(id);
    hypervisor::Vm* source_vm = host_.find(id);
    if (it == vm_meta_.end() || source_vm == nullptr) {
      start_next_migration();  // the VM died mid-transfer; free the link
      return;
    }

    auto adopt = std::make_shared<AdoptVmRequest>();
    adopt->vm = it->second.descriptor;
    adopt->downtime_s = cost.downtime_s;
    adopt->remaining_lifetime_s =
        it->second.stop_at > 0.0 ? std::max(0.0, it->second.stop_at - now()) : 0.0;
    // The adopt confirmation is the commit point of the migration protocol:
    // losing it would leave the destination running the VM while the source
    // reverts to Running (two instances). Retry through transient loss; the
    // destination's adopt handler is idempotent.
    net::RetryPolicy adopt_policy;
    adopt_policy.max_attempts = 3;
    adopt_policy.base_backoff = 0.25;
    endpoint_.call_with_retries(dest, adopt, config_.rpc_timeout, adopt_policy,
                   [this, id, dest, cost, actual_s](bool ok, const net::MsgPtr& reply) {
      const auto* resp2 = ok ? net::msg_cast<AdoptVmResponse>(reply) : nullptr;
      const bool adopted = resp2 != nullptr && resp2->ok;
      auto done = std::make_shared<MigrationDone>();
      done->vm = id;
      done->from = endpoint_.address();
      done->to = dest;
      done->ok = adopted;
      done->duration_s = actual_s;
      done->expected_s = cost.total_s;
      const auto meta2 = vm_meta_.find(id);
      hypervisor::Vm* vm2 = host_.find(id);
      if (adopted) {
        if (vm2 != nullptr) {
          host_.evict(id);
          set_running_vms(std::max(0.0, running_vms_.current() - 1.0));
          host_.touch(now());
        }
        if (meta2 != vm_meta_.end()) {
          if (meta2->second.stop_event != 0) cancel(meta2->second.stop_event);
          vm_meta_.erase(meta2);
        }
        bump("lc.migrations_done");
        trace_event("lc.migration_done");
      } else {
        // Abort: the VM keeps running here.
        if (vm2 != nullptr) vm2->set_state(hypervisor::VmState::kRunning);
        if (meta2 != vm_meta_.end()) meta2->second.migrating = false;
        bump("lc.migrations_failed");
        trace_event("lc.migration_failed");
      }
      endpoint_.send(gm_, done);
      start_next_migration();  // the link is free again
    });
  });
}

void LocalController::handle_adopt(const AdoptVmRequest& req, net::Responder responder) {
  auto resp = std::make_shared<AdoptVmResponse>();
  // Idempotency: if the VM already lives here, a previous adopt succeeded and
  // only the confirmation was lost. Re-ack so the retrying source releases
  // its copy instead of reverting it to Running (a duplicate instance).
  if (host_.find(req.vm.id) != nullptr) {
    resp->ok = true;
    responder.respond(resp);
    return;
  }
  // Refuse new inbound migrations while draining: the source aborts cleanly
  // and keeps its copy running (the migration protocol's failure path).
  if (draining_ || !host_.can_place(req.vm.requested)) {
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  hypervisor::VmSpec spec;
  spec.id = req.vm.id;
  spec.requested = req.vm.requested;
  spec.memory_mb = req.vm.memory_mb;
  spec.dirty_rate_mbps = req.vm.dirty_rate_mbps;
  hypervisor::Vm& vm = host_.place(spec, make_trace(req.vm.trace));
  vm.set_state(hypervisor::VmState::kRunning);
  VmMeta meta;
  meta.descriptor = req.vm;
  if (req.remaining_lifetime_s > 0.0) {
    meta.stop_at = now() + req.remaining_lifetime_s;
    const VmId id = req.vm.id;
    meta.stop_event = after(req.remaining_lifetime_s, [this, id] { terminate_vm(id); });
  }
  vm_meta_[req.vm.id] = meta;
  set_running_vms(running_vms_.current() + 1.0);
  downtime_accum_ += req.downtime_s;  // stop-and-copy pause costs useful work
  host_.touch(now());
  resp->ok = true;
  responder.respond(resp);
  bump("lc.vms_adopted");
  trace_event("lc.vm_adopted");
}

// --- energy management -----------------------------------------------------------

void LocalController::handle_suspend(net::Responder responder) {
  auto resp = std::make_shared<SuspendResponse>();
  if (!host_.idle() || power_state() != PowerState::kOn) {
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  resp->ok = true;
  responder.respond(resp);
  host_.set_power_state(now(), PowerState::kSuspending);
  bump("lc.suspends");
  trace_event("lc.suspending");
  after(host_.spec().power.suspend_latency_s, [this] {
    if (power_state() != PowerState::kSuspending) return;
    host_.set_power_state(now(), PowerState::kSuspended);
    trace_event("lc.suspended");
    if (pending_wakeup_) {
      pending_wakeup_ = false;
      if (wakeup_responder_) {
        auto r = *wakeup_responder_;
        wakeup_responder_.reset();
        finish_wakeup(r);
      }
    }
  });
}

void LocalController::handle_wakeup(net::Responder responder) {
  switch (power_state()) {
    case PowerState::kSuspended:
      finish_wakeup(responder);
      return;
    case PowerState::kSuspending:
      // Race: wake requested while saving context; resume right after.
      pending_wakeup_ = true;
      wakeup_responder_ = responder;
      return;
    case PowerState::kResuming:
      // Already waking: this duplicate request is answered on completion by
      // its own responder to keep the protocol simple.
      wakeup_responder_ = responder;
      return;
    default: {
      auto resp = std::make_shared<WakeupResponse>();
      resp->ok = true;
      responder.respond(resp);
      return;
    }
  }
}

void LocalController::finish_wakeup(net::Responder responder) {
  host_.set_power_state(now(), PowerState::kResuming);
  bump("lc.wakeups");
  trace_event("lc.resuming");
  after(host_.spec().power.resume_latency_s, [this, responder] {
    if (power_state() != PowerState::kResuming) return;
    host_.set_power_state(now(), PowerState::kOn);
    trace_event("lc.resumed");
    auto resp = std::make_shared<WakeupResponse>();
    resp->ok = true;
    responder.respond(resp);
    if (wakeup_responder_) {
      auto r = *wakeup_responder_;
      wakeup_responder_.reset();
      r.respond(resp);
    }
    // Re-announce ourselves so the GM can schedule onto us immediately.
    send_monitor_data();
    send_heartbeat();
  });
}

// --- work accounting / fault injection ----------------------------------------

double LocalController::total_work(sim::Time t) const {
  return running_vms_.integral(t) - downtime_accum_;
}

void LocalController::fail() {
  if (state_ == State::kStopped) return;
  trace_event("lc.fail");
  // Hosted VMs die with the node.
  set_running_vms(0.0);
  for (const auto id : host_.vm_ids()) host_.evict(id);
  vm_meta_.clear();
  migration_queue_.clear();
  migration_active_ = false;
  host_.set_power_state(now(), PowerState::kOff);
  if (gm_group_ != 0) endpoint_.network().leave_group(gm_group_, endpoint_.address());
  endpoint_.network().leave_group(gl_group_, endpoint_.address());
  endpoint_.go_down();
  state_ = State::kStopped;
  crash();
}

void LocalController::restart() {
  if (state_ != State::kStopped) return;
  recover();
  endpoint_.go_up();
  gm_ = net::kNullAddress;
  gm_group_ = 0;
  draining_ = false;  // a restarted node serves fresh traffic again
  pending_wakeup_ = false;
  wakeup_responder_.reset();
  host_.set_power_state(now(), PowerState::kBooting);
  trace_event("lc.restart");
  after(host_.spec().power.boot_latency_s, [this] {
    host_.set_power_state(now(), PowerState::kOn);
    state_ = State::kDiscovering;
    endpoint_.network().join_group(gl_group_, endpoint_.address());
    start_timers();
    trace_event("lc.booted");
  });
}

}  // namespace snooze::core
