// Epoch-fenced failover: stale-leader rejection, reconciliation windows and
// split-brain fencing invariants (DESIGN.md, "Epoch fencing").
//
// These are the tier-1 checks; the 50-seed sweep lives in
// failover_soak_test.cpp (ctest label `soak`).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "chaos/schedule.hpp"
#include "core/messages.hpp"
#include "core/system.hpp"
#include "net/rpc.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;

SystemSpec failover_spec() {
  SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 3;
  spec.local_controllers = 6;
  return spec;
}

GroupManager* find_non_leader(SnoozeSystem& system) {
  for (const auto& gm : system.group_managers()) {
    if (gm->alive() && !gm->is_leader()) return gm.get();
  }
  return nullptr;
}

// A dispatch stamped with a deposed GL's epoch must be refused with the typed
// StaleEpochError, not silently applied or treated as a transport failure.
TEST(EpochFence, StaleGlDispatchRejectedWithTypedError) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  const std::uint64_t old_epoch = system.leader()->epoch();
  ASSERT_GE(old_epoch, 1u);

  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 30.0);
  GroupManager* new_gl = system.leader();
  ASSERT_NE(new_gl, nullptr);
  ASSERT_GT(new_gl->epoch(), old_epoch);

  GroupManager* gm = find_non_leader(system);
  ASSERT_NE(gm, nullptr);
  ASSERT_GE(gm->gl_epoch_seen(), new_gl->epoch());

  // Replay the deposed leader's authority: a placement carrying its epoch.
  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto place = std::make_shared<PlacementRequest>();
  place->vm = system.make_vm({0.1, 0.1, 0.1});
  place->epoch = old_epoch;
  std::optional<std::uint64_t> observed;
  probe.call(gm->address(), place, 5.0, [&](bool ok, const net::MsgPtr& reply) {
    ASSERT_TRUE(ok);
    const auto* stale = net::msg_cast<StaleEpochError>(reply);
    ASSERT_NE(stale, nullptr) << "expected a typed StaleEpochError reply";
    observed = stale->observed;
  });
  system.engine().run_until(system.engine().now() + 5.0);
  ASSERT_TRUE(observed.has_value());
  EXPECT_GE(*observed, new_gl->epoch());
  EXPECT_GE(gm->fence_rejected(), 1u);
  EXPECT_EQ(gm->stale_accepts(), 0u);
}

// An unfenced (epoch 0) placement is admitted: tests and administrative
// paths stay functional without holding a term.
TEST(EpochFence, UnfencedPlacementStillAdmitted) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* gm = find_non_leader(system);
  ASSERT_NE(gm, nullptr);
  ASSERT_GT(gm->lc_count(), 0u);

  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto place = std::make_shared<PlacementRequest>();
  place->vm = system.make_vm({0.1, 0.1, 0.1});
  std::optional<bool> placed;
  probe.call(gm->address(), place, 25.0, [&](bool ok, const net::MsgPtr& reply) {
    const auto* resp = ok ? net::msg_cast<PlacementResponse>(reply) : nullptr;
    placed = resp != nullptr && resp->ok;
  });
  system.engine().run_until(system.engine().now() + 30.0);
  EXPECT_EQ(placed, true);
  EXPECT_EQ(gm->fence_rejected(), 0u);
}

// After its GM dies and the LC re-registers elsewhere, commands stamped with
// the dead GM's old lease must bounce off the LC's fresh lease epoch.
TEST(EpochFence, LcFencesDeposedGmAfterRelease) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  LocalController* lc = system.local_controllers().front().get();
  ASSERT_TRUE(lc->assigned());
  const std::uint64_t old_lease = lc->lease_epoch();
  ASSERT_GE(old_lease, 1u);
  const net::Address old_gm = lc->gm();

  for (std::size_t i = 0; i < system.group_managers().size(); ++i) {
    if (system.group_managers()[i]->address() == old_gm) system.fail_gm(i);
  }
  system.engine().run_until(system.engine().now() + 40.0);
  ASSERT_TRUE(lc->assigned());
  ASSERT_NE(lc->gm(), old_gm);
  ASSERT_GT(lc->lease_epoch(), old_lease);

  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  auto start = std::make_shared<StartVmRequest>();
  start->vm = system.make_vm({0.1, 0.1, 0.1});
  start->epoch = old_lease;  // the dead GM's lease
  std::optional<bool> stale;
  probe.call(lc->address(), start, 5.0, [&](bool ok, const net::MsgPtr& reply) {
    ASSERT_TRUE(ok);
    stale = net::msg_cast<StaleEpochError>(reply) != nullptr;
  });
  system.engine().run_until(system.engine().now() + 5.0);
  EXPECT_EQ(stale, true);
  EXPECT_GE(lc->fence_rejected(), 1u);
  EXPECT_EQ(lc->stale_accepts(), 0u);
}

// Every new GL term opens with a reconciliation window that closes on time
// and is measured into the telemetry registry.
TEST(Reconcile, NewGlFinishesReconciliationWithinWindow) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  ASSERT_GE(system.fail_gl(), 0);
  system.engine().run_until(system.engine().now() + 30.0);

  GroupManager* new_gl = system.leader();
  ASSERT_NE(new_gl, nullptr);
  EXPECT_FALSE(new_gl->reconciling());
  const auto reconciled = system.trace().of_kind("gl.reconciled");
  EXPECT_EQ(std::count_if(reconciled.begin(), reconciled.end(),
                          [&](const auto& r) { return r.actor == new_gl->name(); }),
            1);

  const auto* hist =
      system.telemetry().metrics().find_histogram("reconcile.duration");
  ASSERT_NE(hist, nullptr);
  // Initial election + failover: at least two completed reconcile windows,
  // each exactly one gl_reconcile_window long on the virtual clock.
  EXPECT_GE(hist->count(), 2u);
  EXPECT_LE(hist->max(), system.spec().config.gl_reconcile_window + 1e-9);
  const auto* gauge = system.telemetry().metrics().find_gauge("failover.epoch");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->current(), static_cast<double>(new_gl->epoch()));
}

// A GL's soft state belongs to its term. Deposed by a newer heartbeat, it
// reads empty through every GL accessor; a dispatch reply that lands after
// the step-down still ends its span and answers its client, without writing
// into the dead term; and when the same GM leads again its round-robin
// dispatch carries on from the cursor it left.
TEST(LeaderTerm, GlStateDiesWithItsTerm) {
  SnoozeSystem system(failover_spec());
  system.start();
  ASSERT_TRUE(system.run_until_stable(60.0));
  GroupManager* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  system.client().submit_all({system.make_vm({0.1, 0.1, 0.1}),
                              system.make_vm({0.1, 0.1, 0.1})}, 0.5);
  system.engine().run_until(system.engine().now() + 20.0);
  ASSERT_GT(gl->submission_book_size(), 0u);
  ASSERT_FALSE(gl->vm_inventory().empty());
  ASSERT_GT(gl->known_gm_count(), 0u);

  net::RpcEndpoint probe(system.engine(), system.network(),
                         system.network().allocate_address(), "probe");
  // A successor's heartbeat, one epoch ahead, delivered to the leader alone.
  auto depose = [&](GroupManager* leader) {
    auto hb = std::make_shared<GlHeartbeat>();
    hb->gl = probe.address();
    hb->epoch = leader->epoch() + 1;
    probe.send(leader->address(), hb);
  };
  auto submit = [&](GroupManager* to, std::optional<SubmitVmResponse>& out) {
    auto req = std::make_shared<SubmitVmRequest>();
    req->vm = system.make_vm({0.1, 0.1, 0.1});
    auto& spans = system.telemetry().spans();
    req->ctx = spans.begin(spans.new_trace(), 0, "probe.submit", "probe");
    probe.call(to->address(), req, 30.0, [&out](bool ok, const net::MsgPtr& reply) {
      const auto* resp = ok ? net::msg_cast<SubmitVmResponse>(reply) : nullptr;
      if (resp != nullptr) out = *resp;
    });
    return req->vm.id;
  };

  // Step down while a dispatch waits for its placement (a VM boot).
  std::optional<SubmitVmResponse> late;
  const VmId late_vm = submit(gl, late);
  system.engine().run_until(system.engine().now() + 0.5);
  ASSERT_FALSE(late.has_value());
  depose(gl);
  system.engine().run_until(system.engine().now() + 0.1);
  ASSERT_FALSE(gl->is_leader());
  EXPECT_EQ(gl->known_gm_count(), 0u);
  EXPECT_TRUE(gl->gm_infos().empty());
  EXPECT_EQ(gl->submission_book_size(), 0u);
  EXPECT_TRUE(gl->vm_inventory().empty());
  EXPECT_EQ(gl->vm_conflict_count(), 0u);
  EXPECT_EQ(gl->gm_probation_count(), 0u);
  EXPECT_FALSE(gl->reconciling());
  EXPECT_LT(gl->summary_staleness(), 0.0);
  EXPECT_LT(gl->aggregated_lc_heartbeat_age(), 0.0);

  system.engine().run_until(system.engine().now() + 10.0);
  ASSERT_TRUE(late.has_value());
  EXPECT_TRUE(late->ok);
  const telemetry::SpanRecord* span = nullptr;
  for (const auto& s : system.telemetry().spans().spans()) {
    if (s.name == "gl.dispatch" && s.detail == "vm=" + std::to_string(late_vm)) span = &s;
  }
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->status, "ok");
  EXPECT_EQ(gl->submission_book_size(), 0u);

  // Depose the two successors in turn; the first GL's fresh candidacy is
  // then first in line again.
  for (int i = 0; i < 2; ++i) {
    GroupManager* next = system.leader();
    ASSERT_NE(next, nullptr);
    ASSERT_NE(next, gl);
    depose(next);
    system.engine().run_until(system.engine().now() + 15.0);
  }
  ASSERT_EQ(system.leader(), gl);
  const double deadline = system.engine().now() + 60.0;
  auto both_gms_host = [&] {
    const std::vector<GmInfo> infos = gl->gm_infos();
    return !gl->reconciling() && infos.size() == 2 &&
           std::all_of(infos.begin(), infos.end(),
                       [](const GmInfo& info) { return info.lc_count > 0; });
  };
  for (double t = system.engine().now(); !both_gms_host(); t += 1.0) {
    ASSERT_LT(t, deadline) << "the GMs never rejoined under the new term";
    system.engine().run_until(t + 1.0);
  }

  // Round robin resumes at the old cursor: one step per earlier dispatch.
  const std::vector<GmInfo> infos = gl->gm_infos();
  const auto& spans = system.telemetry().spans().spans();
  const auto cursor = static_cast<std::size_t>(
      std::count_if(spans.begin(), spans.end(), [&](const telemetry::SpanRecord& s) {
        return s.name == "gl.dispatch" && s.actor == gl->name();
      }));
  ASSERT_NE(cursor % infos.size(), 0u) << "a fresh cursor would pick the same GM";
  std::optional<SubmitVmResponse> next;
  submit(gl, next);
  system.engine().run_until(system.engine().now() + 10.0);
  ASSERT_TRUE(next.has_value());
  ASSERT_TRUE(next->ok);
  EXPECT_EQ(next->gm, infos[cursor % infos.size()].gm);
}

// The scripted acceptance scenario: isolate the GL mid-workload, let a
// successor take over, heal — no stale command is ever applied, every VM is
// hosted exactly once, and the whole run is deterministic per seed.
TEST(FailoverChaos, GlIsolationFencedAndDeterministic) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 2024;
  cfg.topology = {3, 6, 2};
  cfg.vms = 6;
  const auto schedule = chaos::parse_script(
      "duration 50\n"
      "5 isolate gl #1\n"
      "25 heal #1\n");
  const auto first = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(first.ok()) << first.report;
  EXPECT_EQ(first.stale_accepts, 0u) << first.report;

  const auto second = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_EQ(first.trace_hash, second.trace_hash)
      << "same seed + script must reproduce the identical trace";
}

TEST(FailoverChaos, GmIsolationFencedAndDeterministic) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 4048;
  cfg.topology = {3, 6, 2};
  cfg.vms = 6;
  const auto schedule = chaos::parse_script(
      "duration 50\n"
      "4 isolate gm 0 #1\n"
      "28 heal #1\n");
  const auto first = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_TRUE(first.ok()) << first.report;
  EXPECT_EQ(first.stale_accepts, 0u) << first.report;

  const auto second = chaos::run_chaos_schedule(cfg, schedule);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
}

}  // namespace
