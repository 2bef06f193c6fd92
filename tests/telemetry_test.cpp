// Tests for the telemetry subsystem: metrics (counters, time-weighted
// gauges, log-bucket histograms), causal spans, exporters, and — the
// acceptance-critical part — the end-to-end span tree of one VM submission
// crossing client → EP → GL → GM → LC, including a retried RPC.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

#include "chaos/runner.hpp"
#include "core/system.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/csv.hpp"

namespace {

using namespace snooze;

// --- metrics -----------------------------------------------------------------------

TEST(Counter, AccumulatesDeltas) {
  telemetry::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TimeWeightedIntegralAndAverage) {
  sim::Engine engine;
  telemetry::MetricsRegistry registry(engine);
  auto& g = registry.gauge("vms");
  g.set(2.0);  // t = 0
  engine.schedule(10.0, [&] { g.set(4.0); });
  engine.schedule(15.0, [] {});  // advance the clock past the change
  engine.run();
  ASSERT_DOUBLE_EQ(engine.now(), 15.0);
  // 2 for 10s + 4 for 5s.
  EXPECT_DOUBLE_EQ(g.current(), 4.0);
  EXPECT_DOUBLE_EQ(g.integral(), 40.0);
  EXPECT_DOUBLE_EQ(g.average(), 40.0 / 15.0);
}

TEST(Gauge, FlushCommitsTailSegmentWithoutDoubleCounting) {
  sim::Engine engine;
  telemetry::MetricsRegistry registry(engine);
  auto& g = registry.gauge("vms");
  g.set(3.0);  // t = 0
  engine.schedule(10.0, [&] {
    // End-of-run flush: commits the 0..10 segment into the stored integral.
    registry.flush_gauges();
    registry.flush_gauges();  // idempotent at one timestamp
  });
  engine.schedule(15.0, [] {});
  engine.run();

  // A correct flush is invisible to integral()/average(): the 0..10 segment
  // is committed once, and accumulation continues across it (3 * 15 = 45).
  EXPECT_DOUBLE_EQ(g.current(), 3.0);
  EXPECT_DOUBLE_EQ(g.integral(), 45.0);
  EXPECT_DOUBLE_EQ(g.average(), 3.0);
}

TEST(Gauge, AddIsRelativeToCurrent) {
  sim::Engine engine;
  telemetry::MetricsRegistry registry(engine);
  auto& g = registry.gauge("g");
  g.add(3.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.current(), 2.0);
}

TEST(Histogram, EmptyReportsZeroes) {
  telemetry::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(Histogram, IdenticalSamplesClampToExactValue) {
  telemetry::Histogram h;
  for (int i = 0; i < 10; ++i) h.observe(1e-3);
  EXPECT_EQ(h.count(), 10u);
  // Interpolation inside the bucket is clamped to the observed [min, max].
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1e-3);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 1e-3);
}

TEST(Histogram, InBucketInterpolationIsGeometric) {
  // Two samples spanning one log bucket ([1.0, 10^0.1) s): the p50 rank
  // falls halfway through the bucket, so the interpolated value must be the
  // bucket's geometric midpoint — strictly below the arithmetic midpoint a
  // linear interpolation would report (the tail-percentile bias log buckets
  // otherwise introduce).
  telemetry::Histogram h;
  const double lower = 1.0;
  const double upper = 1e-6 * std::pow(10.0, 61.0 / 10.0);  // same bucket's top
  h.observe(1.0);
  h.observe(1.25);  // still inside [1.0, 1.2589...)

  const double p50 = h.percentile(0.5);
  EXPECT_NEAR(p50, std::sqrt(lower * upper), 1e-12);
  EXPECT_LT(p50, 0.5 * (lower + upper));
  // The top rank interpolates to the bucket upper bound, then clamps to the
  // observed max.
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1.25);
}

TEST(Histogram, PercentilesOnBimodalDistribution) {
  telemetry::Histogram h;
  for (int i = 0; i < 75; ++i) h.observe(1e-3);
  for (int i = 0; i < 25; ++i) h.observe(0.1);
  // p50 lands in the 1ms bucket, p99 in the 100ms bucket.
  EXPECT_GE(h.percentile(0.5), 1e-3);
  EXPECT_LT(h.percentile(0.5), 1.3e-3);
  EXPECT_DOUBLE_EQ(h.percentile(0.9), 0.1);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.1);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 0.1);
}

TEST(Histogram, UnderflowAndOverflowBucketsClampToObservedRange) {
  telemetry::Histogram under;
  under.observe(0.0);
  under.observe(1e-9);
  EXPECT_EQ(under.bucket_count(0), 2u);  // both below kMinValue
  EXPECT_LE(under.percentile(0.5), 1e-9);
  EXPECT_DOUBLE_EQ(under.min(), 0.0);

  telemetry::Histogram over;
  over.observe(1e12);  // far past the last finite bucket
  EXPECT_DOUBLE_EQ(over.percentile(0.5), 1e12);
  EXPECT_DOUBLE_EQ(over.max(), 1e12);
}

TEST(MetricsRegistry, CreateOnFirstUseAndFind) {
  sim::Engine engine;
  telemetry::MetricsRegistry registry(engine);
  EXPECT_EQ(registry.find_counter("c"), nullptr);
  EXPECT_EQ(registry.find_gauge("g"), nullptr);
  EXPECT_EQ(registry.find_histogram("h"), nullptr);

  auto& c = registry.counter("c");
  c.inc();
  // Same name resolves to the same metric; references stay valid.
  EXPECT_EQ(&registry.counter("c"), &c);
  EXPECT_EQ(registry.find_counter("c"), &c);
  registry.gauge("g");
  registry.histogram("h");
  EXPECT_NE(registry.find_gauge("g"), nullptr);
  EXPECT_NE(registry.find_histogram("h"), nullptr);
  EXPECT_EQ(registry.counters().size(), 1u);
}

TEST(MetricRef, LooksUpOnFirstUpdateAndFollowsTheTelemetry) {
  sim::Engine engine;
  telemetry::Telemetry first(engine);
  telemetry::Telemetry second(engine);
  telemetry::CounterRef<"c"> counter;
  telemetry::GaugeRef<"g"> gauge;
  telemetry::HistogramRef<"h"> histogram;
  telemetry::count(nullptr, counter);  // no telemetry: nothing to bump
  // Like a by-name update, the handle creates nothing until it is used.
  EXPECT_EQ(first.metrics().find_counter("c"), nullptr);
  telemetry::count(&first, counter);
  telemetry::count(&first, counter, 2);
  telemetry::gauge_set(&first, gauge, 2.0);
  telemetry::observe(&first, histogram, 0.5);
  EXPECT_EQ(first.metrics().value("c"), 3u);
  EXPECT_EQ(first.metrics().find_gauge("g")->current(), 2.0);
  EXPECT_EQ(first.metrics().find_histogram("h")->count(), 1u);
  // Handed another Telemetry, the handle looks the name up there.
  telemetry::count(&second, counter);
  EXPECT_EQ(second.metrics().value("c"), 1u);
  EXPECT_EQ(first.metrics().value("c"), 3u);
  EXPECT_EQ(second.metrics().find_histogram("h"), nullptr);
}

// --- spans -------------------------------------------------------------------------

TEST(SpanCollector, BuildsTreeWithParentLinks) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  const auto trace = spans.new_trace();
  const auto root = spans.begin(trace, 0, "root", "client");
  const auto child1 = spans.begin(trace, root.span_id, "child1", "gm");
  const auto child2 = spans.begin(trace, root.span_id, "child2", "gm");
  const auto grand = spans.begin(trace, child1.span_id, "grand", "lc");
  spans.end(grand, "ok");
  spans.end(child1, "timeout");

  EXPECT_EQ(spans.size(), 4u);
  const auto kids = spans.children_of(root.span_id);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0]->name, "child1");
  EXPECT_EQ(kids[1]->name, "child2");
  EXPECT_EQ(spans.trace_spans(trace).size(), 4u);

  const auto* g = spans.find(grand.span_id);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->status, "ok");
  EXPECT_EQ(g->parent_id, child1.span_id);
  EXPECT_FALSE(g->open());
  EXPECT_EQ(spans.find(child1.span_id)->status, "timeout");
  EXPECT_TRUE(spans.find(child2.span_id)->open());
}

// Ring cap for long-horizon runs: the buffer trims to max_spans once it hits
// 2*max_spans; span ids stay stable across trimming (find() by id keeps
// working for retained spans) and end() on a trimmed span is a safe no-op.
TEST(SpanCollector, RingCapBoundsRetainedSpans) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  spans.set_max_spans(4);
  const auto trace = spans.new_trace();
  std::vector<telemetry::SpanContext> ctxs;
  for (int i = 0; i < 12; ++i) {
    ctxs.push_back(spans.begin(trace, 0, "op", "actor"));
  }
  EXPECT_LE(spans.size(), 8u);
  EXPECT_EQ(spans.dropped() + spans.size(), 12u);
  EXPECT_GE(spans.dropped(), 4u);

  EXPECT_EQ(spans.find(ctxs.front().span_id), nullptr);  // trimmed
  const auto* newest = spans.find(ctxs.back().span_id);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->span_id, 12u);  // ids are global, not slot indices

  spans.end(ctxs.front(), "ok");  // trimmed: no-op, must not corrupt
  spans.end(ctxs.back(), "ok");
  EXPECT_EQ(spans.find(ctxs.back().span_id)->status, "ok");
  EXPECT_NE(spans.find(ctxs[ctxs.size() - 2].span_id), nullptr);
}

TEST(SpanCollector, EndIsIdempotentFirstStatusWins) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  const auto ctx = spans.begin(spans.new_trace(), 0, "op", "a");
  spans.end(ctx, "ok");
  spans.end(ctx, "failed");
  EXPECT_EQ(spans.find(ctx.span_id)->status, "ok");
}

TEST(SpanCollector, UntracedContextRecordsNothing) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  const auto ctx = spans.begin(0, 0, "op", "a");  // trace_id 0 = untraced
  EXPECT_FALSE(ctx.valid());
  EXPECT_EQ(spans.size(), 0u);
  spans.end(ctx, "ok");  // no-op, must not crash
  EXPECT_EQ(spans.find(1), nullptr);
}

TEST(SpanCollector, NullSafeHelpersTolerateMissingTelemetry) {
  telemetry::count(nullptr, "c");
  telemetry::observe(nullptr, "h", 1.0);
  telemetry::gauge_add(nullptr, "g", 1.0);
  const auto ctx = telemetry::begin_span(nullptr, telemetry::SpanContext{}, "s", "a");
  EXPECT_FALSE(ctx.valid());
  telemetry::end_span(nullptr, ctx);
}

// --- exporters ---------------------------------------------------------------------

TEST(Export, ChromeTraceJsonHasMetadataAndCompleteEvents) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  const auto trace = spans.new_trace();
  const auto root = spans.begin(trace, 0, "client.submit", "client", "vm=1");
  const auto child = spans.begin(trace, root.span_id, "gl.dispatch", "gm-0");
  spans.end(child, "ok");  // root stays open

  const std::string json = telemetry::chrome_trace_json(spans, engine.now());
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);  // actor metadata
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"client.submit\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"open\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"vm=1\""), std::string::npos);
}

TEST(Export, SpansCsvRoundTripsThroughParser) {
  sim::Engine engine;
  telemetry::SpanCollector spans(engine);
  const auto trace = spans.new_trace();
  // Detail with CSV metacharacters must survive the quoting.
  const auto ctx = spans.begin(trace, 0, "op", "actor", "k=\"a,b\"\nrest");
  spans.end(ctx, "ok");

  const auto rows = util::parse_csv(telemetry::spans_csv(spans));
  ASSERT_EQ(rows.size(), 2u);  // header + one span
  ASSERT_EQ(rows[0].size(), 9u);
  EXPECT_EQ(rows[0][3], "name");
  EXPECT_EQ(rows[1][3], "op");
  EXPECT_EQ(rows[1][8], "k=\"a,b\"\nrest");
}

TEST(Export, MetricsCsvListsEveryKind) {
  sim::Engine engine;
  telemetry::MetricsRegistry registry(engine);
  registry.counter("c").inc(3);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(0.5);

  const auto rows = util::parse_csv(telemetry::metrics_csv(registry));
  ASSERT_EQ(rows.size(), 4u);  // header + counter + gauge + histogram
  ASSERT_EQ(rows[0].size(), 11u);
  EXPECT_EQ(rows[1][0], "counter");
  EXPECT_EQ(rows[1][2], "3");
  EXPECT_EQ(rows[2][0], "gauge");
  EXPECT_EQ(rows[3][0], "histogram");
  EXPECT_EQ(rows[3][3], "1");  // count

  const std::string table = telemetry::metrics_table(registry);
  EXPECT_NE(table.find("c"), std::string::npos);
  EXPECT_NE(table.find("histogram"), std::string::npos);
}

// --- end-to-end span tree ----------------------------------------------------------

const telemetry::SpanRecord* child_named(const telemetry::SpanCollector& spans,
                                         std::uint64_t parent,
                                         std::string_view name) {
  for (const auto* s : spans.children_of(parent)) {
    if (s->name == name) return s;
  }
  return nullptr;
}

// One VM submission must leave a single connected span tree crossing every
// layer — client → EP (GL discovery) → GL (dispatch) → GM (placement) → LC
// (start) — with each rpc attempt as its own span. A directed link fault
// forces the GL's first placement RPC to time out, so the tree also shows a
// retried RPC as sibling attempt spans (timeout, then ok). On the client
// side the stalled placement outlives the submit deadline, so the early
// submit attempts time out and the GL answers a later, coalesced retry —
// without ever dispatching the VM twice.
TEST(TelemetrySystem, SubmissionSpanTreeLinksAllLayersAcrossRetry) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 2;
  spec.local_controllers = 4;
  spec.seed = 7;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  auto* gl = system.leader();
  ASSERT_NE(gl, nullptr);
  core::GroupManager* managing = nullptr;
  for (auto& gm : system.group_managers()) {
    if (gm->alive() && !gm->is_leader() && gm->lc_count() > 0) managing = gm.get();
  }
  ASSERT_NE(managing, nullptr);

  // Drop everything the GL sends to the managing GM, so the first placement
  // RPC times out (20s); heal just after the timeout so the retry succeeds.
  system.network().set_link_faults(gl->address(), managing->address(),
                                   net::LinkFaults{.drop = 1.0});
  bool ok = false;
  system.client().submit(system.make_vm({0.125, 0.125, 0.125}),
                         [&](bool success, net::Address, sim::Time) { ok = success; });
  system.engine().schedule(20.1, [&] {
    system.network().clear_link_faults(gl->address(), managing->address());
  });
  system.engine().run_until(system.engine().now() + 120.0);
  ASSERT_TRUE(ok);

  const auto& spans = system.telemetry().spans();
  const telemetry::SpanRecord* root = nullptr;
  for (const auto& s : spans.spans()) {
    if (s.name == "client.submit") root = &s;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  EXPECT_EQ(root->status, "ok");

  // client → EP: GL discovery.
  const auto* rpc_query = child_named(spans, root->span_id, "rpc:ep.gl_query");
  ASSERT_NE(rpc_query, nullptr);
  const auto* ep_handle = child_named(spans, rpc_query->span_id, "ep.gl_query");
  ASSERT_NE(ep_handle, nullptr);
  EXPECT_EQ(ep_handle->actor.rfind("ep-", 0), 0u);

  // client → GL: submission. The placement takes longer than the client's
  // submit deadline, so the first attempt times out while the dispatch keeps
  // running; a later retry is parked on the in-flight dispatch and carries
  // the eventual success back. The dispatch span hangs off the attempt that
  // actually started it (the first one).
  std::vector<const telemetry::SpanRecord*> submit_attempts;
  for (const auto* s : spans.children_of(root->span_id)) {
    if (s->name == "rpc:gl.submit_vm") submit_attempts.push_back(s);
  }
  ASSERT_GE(submit_attempts.size(), 2u);
  const auto* rpc_submit = submit_attempts.front();
  EXPECT_EQ(rpc_submit->status, "timeout");
  EXPECT_EQ(submit_attempts.back()->status, "ok");
  const auto* dispatch = child_named(spans, rpc_submit->span_id, "gl.dispatch");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->actor, gl->name());
  EXPECT_EQ(dispatch->status, "ok");
  // Coalescing, not re-dispatching: every duplicate submit collapsed onto
  // one dispatch (and therefore one placed VM).
  EXPECT_EQ(system.telemetry().metrics().counter("gl.dispatches").value(), 1u);
  EXPECT_EQ(system.running_vm_count(), 1u);

  // GL → GM: the blocked link makes attempt #1 time out; attempt #2 lands.
  std::vector<const telemetry::SpanRecord*> attempts;
  for (const auto* s : spans.children_of(dispatch->span_id)) {
    if (s->name == "rpc:gm.place_vm") attempts.push_back(s);
  }
  ASSERT_EQ(attempts.size(), 2u);
  EXPECT_EQ(attempts[0]->status, "timeout");
  EXPECT_EQ(attempts[1]->status, "ok");

  // The placement hangs off the attempt that was actually delivered.
  const auto* place = child_named(spans, attempts[1]->span_id, "gm.place");
  ASSERT_NE(place, nullptr);
  EXPECT_EQ(place->actor, managing->name());
  EXPECT_EQ(place->status, "ok");

  // GM → LC: the VM start.
  const auto* rpc_start = child_named(spans, place->span_id, "rpc:lc.start_vm");
  ASSERT_NE(rpc_start, nullptr);
  EXPECT_EQ(rpc_start->status, "ok");
  const auto* start = child_named(spans, rpc_start->span_id, "lc.start_vm");
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->actor.rfind("lc-", 0), 0u);
  EXPECT_EQ(start->status, "ok");

  // Every hop shares the root's trace id: the path is one connected tree.
  for (const auto* s : {rpc_query, ep_handle, rpc_submit, dispatch, attempts[0],
                        attempts[1], place, rpc_start, start}) {
    EXPECT_EQ(s->trace_id, root->trace_id);
  }

  // The registry mirrors the transport stats exactly.
  EXPECT_EQ(system.telemetry().metrics().counter("net.messages_sent").value(),
            system.network().stats().messages_sent);
  EXPECT_GE(system.telemetry().metrics().counter("rpc.timeouts").value(), 1u);
  EXPECT_DOUBLE_EQ(
      system.telemetry().metrics().gauge("cluster.running_vms").current(),
      static_cast<double>(system.running_vm_count()));
}

// The network keeps one traffic tally, and the registry's net.* counters
// mirror it event for event: after a run that loses and duplicates messages,
// all five agree and none is zero.
TEST(TelemetrySystem, RegistryMirrorsEveryTrafficTally) {
  core::SystemSpec spec;
  spec.entry_points = 1;
  spec.group_managers = 2;
  spec.local_controllers = 4;
  spec.seed = 11;
  core::SnoozeSystem system(spec);
  system.start();
  ASSERT_TRUE(system.run_until_stable(300.0));

  system.network().set_drop_probability(0.05);
  for (const auto& lc : system.local_controllers()) {
    ASSERT_TRUE(lc->assigned());
    system.network().set_link_faults(lc->address(), lc->gm(),
                                     net::LinkFaults{.duplicate = 0.2});
  }
  system.engine().run_until(system.engine().now() + 60.0);

  const auto& metrics = system.telemetry().metrics();
  const net::TrafficStats& stats = system.network().stats();
  const std::pair<const char*, std::uint64_t> tallies[] = {
      {"net.messages_sent", stats.messages_sent},
      {"net.messages_delivered", stats.messages_delivered},
      {"net.messages_dropped", stats.messages_dropped},
      {"net.messages_duplicated", stats.messages_duplicated},
      {"net.bytes_sent", stats.bytes_sent},
  };
  for (const auto& [name, tally] : tallies) {
    EXPECT_GT(tally, 0u) << name;
    EXPECT_EQ(metrics.value(name), tally) << name;
  }
}

// --- determinism -------------------------------------------------------------------

// Telemetry is always on and must stay passive: two chaos runs with the same
// seed produce bit-identical trace fingerprints.
TEST(TelemetryDeterminism, SameSeedChaosRunsShareTraceHash) {
  chaos::ChaosRunConfig cfg;
  cfg.seed = 20260806;
  cfg.spec.duration = 60.0;
  const auto a = chaos::run_chaos(cfg);
  const auto b = chaos::run_chaos(cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

}  // namespace
