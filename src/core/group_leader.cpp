// GL role of the GroupManager: election and term lifecycle, GM liveness and
// the summary stream, the VM inventory, LC assignment and VM dispatch. Every
// handler reads and writes the current LeaderTerm; none of it outlives the
// term (see core/group_leader.hpp for what does).
#include "core/group_manager.hpp"

#include <algorithm>

namespace snooze::core {

const LeaderTerm& GroupManager::term() const {
  static const LeaderTerm kNoTerm;
  return term_ ? *term_ : kNoTerm;
}

std::vector<GmInfo> GroupManager::gm_infos() const {
  std::vector<GmInfo> out;
  out.reserve(term().gms.size());
  for (const auto& [addr, record] : term().gms) out.push_back(record.info);
  return out;
}

std::size_t GroupManager::gm_probation_count() const {
  std::size_t n = 0;
  for (const auto& [addr, record] : term().gms) {
    if (record.info.probation) ++n;
  }
  return n;
}

void GroupManager::become_leader(std::uint64_t epoch) {
  if (term_) return;
  if (draining_) {
    // A node emptying out for a restart must not take the fleet's authority
    // role; re-enter the election at the back of the queue instead.
    election_.resign();
    return;
  }
  term_.emplace();
  bump("gm.elections_won");
  my_epoch_ = epoch;
  current_gl_ = endpoint_.address();
  trace_event("gm.elected_gl", "epoch=" + std::to_string(epoch));
  telemetry::gauge_set(tel(), "failover.epoch", static_cast<double>(epoch));

  // Dedicated roles: hand the managed LCs back to the hierarchy.
  resign_lcs();
  // Role change: the scorer now baselines GMs, not LCs.
  scorer_.clear();

  // Reconciliation window: defer client work (submissions, LC assignments)
  // until the GM summaries arriving under this term have rebuilt our soft
  // state; in-flight migrations surface through the LC monitoring reports of
  // the GMs that inherit them.
  term_->reconciling = true;
  term_->reconcile_started = now();
  telemetry::Telemetry* t = tel();
  if (t != nullptr) {
    term_->reconcile_span = t->spans().begin(t->spans().new_trace(), 0, "gl.reconcile",
                                             name(), "epoch=" + std::to_string(epoch));
  }
  after(config_.gl_reconcile_window, [this, epoch] { finish_reconcile(epoch); });

  every(config_.gl_heartbeat_period, [this] {
    gl_tick_heartbeat();
    return is_leader();
  });
  every(config_.gm_summary_period, [this] {
    gl_check_gm_liveness();
    return is_leader();
  });
  // Announce immediately so discovery does not wait a full period.
  gl_tick_heartbeat();
}

void GroupManager::finish_reconcile(std::uint64_t term) {
  // A step-down (or a newer term of our own) may have raced the timer.
  if (!term_ || my_epoch_ != term || !term_->reconciling) return;
  term_->reconciling = false;
  const sim::Time duration = now() - term_->reconcile_started;
  bump("gl.reconciles");
  telemetry::observe(tel(), "reconcile.duration", duration);
  telemetry::gauge_set(tel(), "reconcile.last_duration", duration);
  telemetry::end_span(tel(), term_->reconcile_span, "ok");
  trace_event("gl.reconciled", "gms=" + std::to_string(term_->gms.size()));
}

void GroupManager::step_down(const char* reason) {
  if (!term_) return;
  bump("gl.stepdowns");
  trace_event("gm.stepdown", reason);
  if (term_->reconciling) telemetry::end_span(tel(), term_->reconcile_span, "aborted");
  term_.reset();
  scorer_.clear();  // back to GM role: LC baselines start cold
  // Re-enter the election as a fresh candidate: our old znode is gone (a
  // successor exists or the session expired), so a new, strictly higher
  // sequence keeps epochs monotone.
  election_.resign();
}

void GroupManager::gl_tick_heartbeat() {
  if (!term_) return;
  telemetry::count(tel(), hot_.gl_heartbeats);
  auto hb = std::make_shared<GlHeartbeat>();
  hb->gl = endpoint_.address();
  hb->epoch = my_epoch_;
  endpoint_.multicast(gl_group_, hb);
}

void GroupManager::handle_gl_heartbeat(const GlHeartbeat& hb) {
  if (hb.gl == endpoint_.address()) return;
  if (hb.epoch != 0 && hb.epoch < gl_fence_.high_water) return;  // stale leader
  if (hb.epoch > gl_fence_.high_water) gl_fence_.high_water = hb.epoch;
  current_gl_ = hb.gl;
  if (term_ && hb.epoch > my_epoch_) {
    // A successor with a newer election epoch exists — our coordination
    // session must have expired while we were partitioned away. Abdicate and
    // resume plain GM duty to prevent split-brain after the partition heals.
    step_down("newer gl heartbeat");
  }
}

void GroupManager::gl_check_gm_liveness() {
  if (!term_) return;
  const sim::Time window =
      config_.gm_summary_period * config_.heartbeat_timeout_factor;
  for (auto it = term_->gms.begin(); it != term_->gms.end();) {
    if (now() - it->second.last_summary > window) {
      // Gracefully remove the failed GM so no new VMs land on it.
      bump("gl.gm_failures_detected");
      trace_event("gl.gm_failed");
      const net::Address gone = it->first;
      it = term_->gms.erase(it);
      drop_gm_inventory(gone);
      scorer_.forget(gone);
    } else {
      ++it;
    }
  }
  prune_submission_book();
}

void GroupManager::gl_flag_slow_gms() {
  // Never kill a flagged GM — a slow-but-alive GM must not lose its group to
  // a spurious failover.
  for (auto& [addr, record] : term_->gms) {
    const bool slow = scorer_.flagged(addr);
    if (slow && !record.info.probation) {
      bump("gl.gm_slow_flagged");
      trace_event("gl.gm_slow", "gm=" + std::to_string(addr));
    } else if (!slow && record.info.probation) {
      bump("gl.gm_slow_cleared");
      trace_event("gl.gm_slow_cleared", "gm=" + std::to_string(addr));
    }
    record.info.probation = slow;
  }
}

void GroupManager::prune_submission_book() {
  const sim::Time retention = config_.submission_book_retention;
  if (retention <= 0.0) return;
  auto& book = term_->completed_submissions;
  const auto& inventory = term_->vm_inventory;
  // A live VM's book entry is only refreshed on placement *changes*, so
  // retention alone would prune (and then duplicate on a client replay)
  // long-lived idle VMs: anything the inventory still lists as running is
  // exempt. Book and inventory both ascend by VmId, so one walk over the
  // two finds those without a lookup per entry.
  auto live = inventory.begin();
  for (auto it = book.begin(); it != book.end();) {
    if (now() - it->second.at > retention) {
      while (live != inventory.end() && live->first < it->first) ++live;
      if (live == inventory.end() || live->first != it->first) {
        it = book.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void GroupManager::handle_summary_delta(const GmSummaryDelta& delta,
                                        net::Responder responder) {
  auto ack = std::make_shared<GmSummaryAck>();
  ack->seq = delta.update.seq;
  if (!term_) {
    // Not an authority on the stream (includes the degenerate self-send
    // right after a step-down): refuse, the GM re-anchors at the real GL.
    ack->ok = false;
    responder.respond(ack);
    return;
  }
  LeaderTerm::GmRecord& record = term_->gms[delta.gm];
  const std::uint64_t seq_before = record.decoder.last_seq();
  const bool synced_before = record.decoder.synced();
  if (!record.decoder.apply(delta.update)) {
    bump("gl.summary_rejected");
    trace_event("gl.summary_rejected", "gm=" + std::to_string(delta.gm));
    ack->ok = false;
    responder.respond(ack);
    return;
  }
  record.info.gm = delta.gm;
  record.info.used = delta.used;
  record.info.capacity = delta.capacity;
  record.info.lc_count = delta.lc_count;
  record.info.vm_count = delta.vm_count;
  record.info.worst_lc_heartbeat_age = delta.worst_lc_heartbeat_age;
  // Summary inter-arrival gap: a gray GM assembles its reports slowly, so
  // its stream stutters relative to its peers. Outage-sized gaps (the GM was
  // down or partitioned) belong to the liveness machinery, not the scorer.
  const sim::Time gap = now() - record.last_summary;
  if (record.last_summary > 0.0 &&
      gap < config_.gm_summary_period * config_.heartbeat_timeout_factor) {
    scorer_.add_sample(delta.gm, obs::SlownessMetric::kSummary, gap);
  }
  record.last_summary = now();
  // Sync the VM inventory only when the decoder actually advanced: a
  // duplicate delivery of an *old* delta is acked (the GM moved on long ago)
  // but its stale placements must not regress the inventory.
  const bool advanced = record.decoder.last_seq() != seq_before ||
                        record.decoder.synced() != synced_before;
  if (delta.update.snapshot) {
    // Re-anchor: claims this GM no longer makes are removals, then the full
    // state is re-asserted. Both paths are idempotent.
    const VmLocationMap& state = record.decoder.state();
    std::vector<VmId> gone;
    for (const auto& [vm, owner] : term_->vm_inventory) {
      if (owner.gm == delta.gm && state.count(vm) == 0) gone.push_back(vm);
    }
    for (const VmId vm : gone) note_vm_removed(delta.gm, vm);
    for (const auto& [vm, lc] : state) note_vm_placed(delta.gm, vm, lc);
  } else if (advanced) {
    for (const auto& [vm, lc] : delta.update.placed) note_vm_placed(delta.gm, vm, lc);
    for (const VmId vm : delta.update.removed) note_vm_removed(delta.gm, vm);
  }
  resolve_conflicts_for(delta.gm);
  ack->ok = true;
  responder.respond(ack);
}

void GroupManager::note_vm_placed(net::Address gm, VmId vm, net::Address lc) {
  auto& book = term_->completed_submissions;
  auto& conflicts = term_->vm_conflicts;
  const auto [it, inserted] =
      term_->vm_inventory.try_emplace(vm, VmOwnership{gm, lc, now()});
  if (inserted) {
    book[vm] = {lc, gm, now()};
    return;
  }
  VmOwnership& owner = it->second;
  if (owner.gm == gm) {
    owner.lc = lc;  // intra-GM move (migration); not a duplicate
    book[vm] = {lc, gm, now()};
    return;
  }
  if (owner.lc == lc) {
    // Same LC under a new GM: the LC (with its VMs) rejoined the hierarchy
    // elsewhere — a legitimate ownership transfer, not a second instance.
    // The old GM's stale claim retires with its next snapshot or removal.
    owner = VmOwnership{gm, lc, now()};
    if (const auto c = conflicts.find(vm);
        c != conflicts.end() && c->second.challenger == gm) {
      conflicts.erase(c);
    }
    book[vm] = {lc, gm, now()};
    return;
  }
  // Same VM id claimed by two GMs on different LCs: a true cross-GM
  // duplicate (e.g. a submit replayed against a new GL while the original
  // placement survived a partition). Deciding on this single report could
  // kill a healthy VM on a reordered stream, so park the claim and settle it
  // against the incumbent's next applied summary (resolve_conflicts_for).
  LeaderTerm::PendingConflict& conflict = conflicts[vm];
  if (conflict.since == 0.0) conflict.since = now();
  conflict.incumbent = owner.gm;
  conflict.challenger = gm;
  conflict.challenger_lc = lc;
  bump("gl.cross_gm_conflicts");
  trace_event("gl.cross_gm_conflict", "vm=" + std::to_string(vm));
}

void GroupManager::note_vm_removed(net::Address gm, VmId vm) {
  auto& conflicts = term_->vm_conflicts;
  if (const auto c = conflicts.find(vm);
      c != conflicts.end() && c->second.challenger == gm) {
    conflicts.erase(c);  // the challenger withdrew its claim
  }
  const auto it = term_->vm_inventory.find(vm);
  if (it == term_->vm_inventory.end() || it->second.gm != gm) return;
  if (const auto c = conflicts.find(vm);
      c != conflicts.end() && c->second.incumbent == gm) {
    // The incumbent dropped the VM while a challenger waits: the challenger
    // simply becomes the owner — no instance was ever a duplicate for long.
    it->second = VmOwnership{c->second.challenger, c->second.challenger_lc, now()};
    term_->completed_submissions[vm] = {c->second.challenger_lc, c->second.challenger,
                                        now()};
    conflicts.erase(c);
    return;
  }
  term_->vm_inventory.erase(it);
  // Retire the idempotency-book entry with the inventory: once no GM hosts
  // the VM, replaying "ok, it lives on LC x" to a client retry would accept
  // a submission whose VM is already gone (e.g. a fail-slow copy the GM
  // adopted from a monitoring report and then aborted). The client's retry
  // dispatches afresh instead.
  term_->completed_submissions.erase(vm);
}

void GroupManager::resolve_conflicts_for(net::Address gm) {
  const auto gm_it = term_->gms.find(gm);
  if (gm_it == term_->gms.end()) return;
  const VmLocationMap& state = gm_it->second.decoder.state();
  auto& conflicts = term_->vm_conflicts;
  for (auto it = conflicts.begin(); it != conflicts.end();) {
    if (it->second.incumbent != gm) {
      ++it;
      continue;
    }
    const VmId vm = it->first;
    const LeaderTerm::PendingConflict conflict = it->second;
    if (state.count(vm) > 0) {
      // The incumbent's fresh summary still reports the VM: the challenger's
      // copy is the duplicate. Revoke it under our election epoch so a
      // deposed leader's late revoke is fenced off at the GM.
      bump("gl.cross_gm_duplicates_revoked");
      trace_event("gl.duplicate_revoked", "vm=" + std::to_string(vm));
      auto revoke = std::make_shared<RevokeVmRequest>();
      revoke->vm = vm;
      revoke->lc = conflict.challenger_lc;
      revoke->epoch = my_epoch_;
      endpoint_.send(conflict.challenger, revoke);
    } else {
      term_->vm_inventory[vm] =
          VmOwnership{conflict.challenger, conflict.challenger_lc, now()};
      term_->completed_submissions[vm] = {conflict.challenger_lc, conflict.challenger,
                                          now()};
    }
    it = conflicts.erase(it);
  }
}

void GroupManager::drop_gm_inventory(net::Address gm) {
  auto& conflicts = term_->vm_conflicts;
  auto& inventory = term_->vm_inventory;
  for (auto it = conflicts.begin(); it != conflicts.end();) {
    if (it->second.challenger == gm) {
      it = conflicts.erase(it);
    } else if (it->second.incumbent == gm) {
      // The incumbent left the fleet: the challenger's copy is the survivor.
      inventory[it->first] =
          VmOwnership{it->second.challenger, it->second.challenger_lc, now()};
      it = conflicts.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = inventory.begin(); it != inventory.end();) {
    if (it->second.gm == gm) {
      it = inventory.erase(it);
    } else {
      ++it;
    }
  }
}

double GroupManager::summary_staleness() const {
  if (!term_ || term_->gms.empty()) return -1.0;
  double worst = 0.0;
  for (const auto& [addr, record] : term_->gms) {
    worst = std::max(worst, now() - record.last_summary);
  }
  return worst;
}

double GroupManager::aggregated_lc_heartbeat_age() const {
  double worst = -1.0;
  for (const auto& [addr, record] : term().gms) {
    worst = std::max(worst, record.info.worst_lc_heartbeat_age);
  }
  return worst;
}

std::vector<GmInfo> GroupManager::work_candidates() const {
  // Steer around GMs under gray suspicion; if the whole fleet is flagged the
  // filter would turn a slowdown into an outage, so fall back to everyone.
  std::vector<GmInfo> infos = gm_infos();
  std::vector<GmInfo> healthy;
  healthy.reserve(infos.size());
  for (const GmInfo& info : infos) {
    if (!info.probation) healthy.push_back(info);
  }
  return healthy.empty() ? infos : healthy;
}

void GroupManager::handle_assign_lc(const AssignLcRequest& req, net::Responder responder) {
  (void)req;  // the assignment policy ranks GMs independently of the LC
  auto resp = std::make_shared<AssignLcResponse>();
  if (!term_ || reconciling()) {
    if (reconciling()) bump("gl.reconcile_deferred");
    resp->ok = false;
    responder.respond(resp);
    return;
  }
  const net::Address gm = assignment_.assign(work_candidates());
  resp->ok = gm != net::kNullAddress;
  resp->gm = gm;
  responder.respond(resp);
}

void GroupManager::handle_submit(const SubmitVmRequest& req, telemetry::SpanContext ctx,
                                 net::Responder responder) {
  auto fail = [&] {
    auto resp = std::make_shared<SubmitVmResponse>();
    resp->ok = false;
    responder.respond(resp);
  };
  if (!term_) {
    fail();
    return;
  }
  // A fresh term defers client work until soft state is rebuilt; the client
  // retries past the window (reconcile < its backoff horizon).
  if (term_->reconciling) {
    bump("gl.reconcile_deferred");
    fail();
    return;
  }
  // Idempotency: replay the result of an already-completed submission (the
  // client only retries when our previous response was lost in transit).
  const auto done = term_->completed_submissions.find(req.vm.id);
  if (done != term_->completed_submissions.end()) {
    auto resp = std::make_shared<SubmitVmResponse>();
    resp->ok = true;
    resp->lc = done->second.lc;
    resp->gm = done->second.gm;
    responder.respond(resp);
    return;
  }
  if (term_->inflight_submissions.count(req.vm.id) > 0) {
    // A retry raced the first dispatch (the client's submit deadline is
    // tighter than a worst-case placement). Park it; every waiter is
    // answered with the dispatch's outcome instead of bouncing the client
    // into another discovery round while the VM is still being placed.
    term_->submit_waiters[req.vm.id].push_back(responder);
    return;
  }
  bump("gl.dispatches");
  const auto span = telemetry::begin_span(tel(), ctx, "gl.dispatch", name(),
                                          "vm=" + std::to_string(req.vm.id));
  std::vector<net::Address> candidates = dispatch_policy_->candidates(
      req.vm, work_candidates(), config_.max_dispatch_candidates);
  if (candidates.empty()) {
    bump("gl.dispatch_failures");
    telemetry::end_span(tel(), span, "no_candidates");
    fail();
    return;
  }
  term_->inflight_submissions.insert(req.vm.id);
  dispatch_linear_search(req.vm, std::move(candidates), 0, span, responder);
}

// A dispatch reply can land after its term ended (a step-down; a crash drops
// pending calls instead). It still ends its span, answers its client and,
// after a rejection, tries the next candidate under the old epoch; only its
// bookkeeping (in-flight set, book, waiters) is skipped while no term is
// engaged.
void GroupManager::dispatch_linear_search(VmDescriptor vm,
                                          std::vector<net::Address> candidates,
                                          std::size_t index, telemetry::SpanContext span,
                                          net::Responder responder) {
  if (index >= candidates.size()) {
    if (term_) term_->inflight_submissions.erase(vm.id);
    bump("gl.dispatch_failures");
    telemetry::end_span(tel(), span, "failed");
    SubmitVmResponse out;
    answer_submit(vm.id, responder, out);
    return;
  }
  // Each candidate GM gets transport-level retries before we move on: if an
  // attempt's *response* was lost (the GM may well have placed the VM), the
  // GM's idempotent placement handler resolves the re-send instantly instead
  // of a second copy being started on the next GM. Explicit rejections do
  // not retry (call_with_retries semantics) and fall through to the next
  // candidate immediately.
  const net::Address gm = candidates[index];
  auto place = std::make_shared<PlacementRequest>();
  place->vm = vm;
  place->ctx = span;
  place->epoch = my_epoch_;  // fencing token: GMs reject deposed leaders
  net::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_backoff = 0.25;
  endpoint_.call_with_retries(
      gm, place, config_.placement_rpc_timeout, policy,
      [this, vm, candidates = std::move(candidates), index, gm, span,
       responder](bool ok, const net::MsgPtr& reply) mutable {
    if (ok && net::msg_cast<StaleEpochError>(reply) != nullptr) {
      // A GM saw a newer GL term than ours: we are deposed. Abandon the
      // dispatch (the client retries against the successor) and rejoin the
      // election instead of spraying stale commands at further candidates.
      if (term_) term_->inflight_submissions.erase(vm.id);
      telemetry::end_span(tel(), span, "stale_epoch");
      // Answer before step_down(): stepping down drops the waiter book.
      SubmitVmResponse out;
      answer_submit(vm.id, responder, out);
      step_down("stale epoch on dispatch");
      return;
    }
    const auto* resp = ok ? net::msg_cast<PlacementResponse>(reply) : nullptr;
    if (resp != nullptr && resp->ok) {
      if (term_) {
        term_->inflight_submissions.erase(vm.id);
        term_->completed_submissions[vm.id] = {resp->lc, gm, now()};
      }
      telemetry::end_span(tel(), span, "ok");
      SubmitVmResponse out;
      out.ok = true;
      out.lc = resp->lc;
      out.gm = gm;
      answer_submit(vm.id, responder, out);
      return;
    }
    // Rejected or retries exhausted: try the next candidate GM.
    dispatch_linear_search(std::move(vm), std::move(candidates), index + 1, span,
                           responder);
  });
}

void GroupManager::answer_submit(VmId vm, const net::Responder& responder,
                                 const SubmitVmResponse& result) {
  responder.respond(std::make_shared<SubmitVmResponse>(result));
  if (!term_) return;
  const auto waiting = term_->submit_waiters.find(vm);
  if (waiting == term_->submit_waiters.end()) return;
  for (const auto& waiter : waiting->second) {
    waiter.respond(std::make_shared<SubmitVmResponse>(result));
  }
  term_->submit_waiters.erase(waiting);
}

}  // namespace snooze::core
