// Unit tests for the Snooze scheduling building blocks: demand estimators,
// GL dispatch policies, GM placement policies, LC->GM assignment policies,
// relocation planning, and trace-spec materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/estimator.hpp"
#include "core/policies.hpp"
#include "core/relocation.hpp"
#include "core/types.hpp"

namespace {

using namespace snooze;
using namespace snooze::core;
using hypervisor::ResourceVector;

// --- ResourceEstimator ----------------------------------------------------------

TEST(Estimator, EmptyEstimateIsZero) {
  ResourceEstimator est(3);
  EXPECT_TRUE(est.empty());
  EXPECT_EQ(est.estimate(), ResourceVector{});
}

TEST(Estimator, WindowMaxTracksComponentWiseMax) {
  ResourceEstimator est(3);
  est.add({0.1, 0.5, 0.2});
  est.add({0.4, 0.2, 0.1});
  const auto e = est.estimate();
  EXPECT_DOUBLE_EQ(e.cpu(), 0.4);
  EXPECT_DOUBLE_EQ(e.memory(), 0.5);
  EXPECT_DOUBLE_EQ(e.network(), 0.2);
}

TEST(Estimator, WindowEvictsOldSamples) {
  ResourceEstimator est(2);
  est.add({0.9, 0.9, 0.9});
  est.add({0.1, 0.1, 0.1});
  est.add({0.2, 0.2, 0.2});  // the 0.9 sample leaves the window
  EXPECT_DOUBLE_EQ(est.estimate().cpu(), 0.2);

  // A window of three fed twelve samples wraps its ring four times; every
  // estimate is the component-wise max of the last three samples.
  const double v[] = {0.7, 0.2, 0.9, 0.1, 0.3, 0.4, 0.8, 0.05, 0.6, 0.5, 0.15, 0.25};
  const std::size_t n = std::size(v);
  std::vector<ResourceVector> fed;
  ResourceEstimator ring(3);
  for (std::size_t i = 0; i < n; ++i) {
    fed.push_back({v[i], v[(i + 4) % n], v[(i + 9) % n]});
    ring.add(fed.back());
    ResourceVector expect;
    for (std::size_t k = fed.size() - std::min<std::size_t>(fed.size(), 3); k < fed.size(); ++k) {
      for (std::size_t d = 0; d < ResourceVector::kDims; ++d) {
        expect[d] = std::max(expect[d], fed[k][d]);
      }
    }
    EXPECT_EQ(ring.estimate(), expect) << "after sample " << i;
  }
}

// --- helpers ----------------------------------------------------------------------

GmInfo gm_info(net::Address addr, double used_frac) {
  GmInfo info;
  info.gm = addr;
  info.capacity = {4.0, 4.0, 4.0};
  info.used = info.capacity.scaled(used_frac);
  info.lc_count = 4;
  return info;
}

LcInfo lc_info(net::Address addr, double reserved_frac, double used_frac,
               bool on = true) {
  LcInfo info;
  info.lc = addr;
  info.capacity = {1.0, 1.0, 1.0};
  info.reserved = info.capacity.scaled(reserved_frac);
  info.estimated_used = info.capacity.scaled(used_frac);
  info.powered_on = on;
  return info;
}

VmDescriptor vm(double size) {
  VmDescriptor d;
  d.id = 1;
  d.requested = {size, size, size};
  return d;
}

// --- Dispatch policies -------------------------------------------------------------

TEST(Dispatch, RoundRobinRotatesStart) {
  RoundRobinDispatch policy;
  const std::vector<GmInfo> gms{gm_info(1, 0.1), gm_info(2, 0.1), gm_info(3, 0.1)};
  const auto first = policy.candidates(vm(0.2), gms, 3);
  const auto second = policy.candidates(vm(0.2), gms, 3);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_NE(first[0], second[0]);
}

TEST(Dispatch, RespectsMaxCandidates) {
  RoundRobinDispatch policy;
  const std::vector<GmInfo> gms{gm_info(1, 0.1), gm_info(2, 0.1), gm_info(3, 0.1)};
  EXPECT_EQ(policy.candidates(vm(0.2), gms, 2).size(), 2u);
}

TEST(Dispatch, FullGmsRankLast) {
  RoundRobinDispatch policy;
  // GM 1 summary says it has no room for a 0.5 VM; GM 2 does.
  const std::vector<GmInfo> gms{gm_info(1, 0.95), gm_info(2, 0.1)};
  const auto candidates = policy.candidates(vm(0.5), gms, 2);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0], 2u);  // likely-feasible first
  EXPECT_EQ(candidates[1], 1u);  // still tried (summaries are approximate)
}

TEST(Dispatch, LeastLoadedOrdersByLoad) {
  LeastLoadedDispatch policy;
  const std::vector<GmInfo> gms{gm_info(1, 0.7), gm_info(2, 0.2), gm_info(3, 0.5)};
  const auto candidates = policy.candidates(vm(0.1), gms, 3);
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0], 2u);
  EXPECT_EQ(candidates[1], 3u);
  EXPECT_EQ(candidates[2], 1u);
}

TEST(Dispatch, EmptyGmListYieldsNothing) {
  RoundRobinDispatch rr;
  LeastLoadedDispatch ll;
  EXPECT_TRUE(rr.candidates(vm(0.1), {}, 4).empty());
  EXPECT_TRUE(ll.candidates(vm(0.1), {}, 4).empty());
}

// --- Placement policies ---------------------------------------------------------------

TEST(Placement, FirstFitTakesFirstFeasible) {
  FirstFitPlacement policy;
  const std::vector<LcInfo> lcs{lc_info(1, 0.9, 0.9), lc_info(2, 0.3, 0.3),
                                lc_info(3, 0.0, 0.0)};
  EXPECT_EQ(policy.choose(vm(0.5), lcs), 2u);
}

TEST(Placement, SkipsPoweredOffLcs) {
  FirstFitPlacement policy;
  const std::vector<LcInfo> lcs{lc_info(1, 0.0, 0.0, /*on=*/false),
                                lc_info(2, 0.0, 0.0)};
  EXPECT_EQ(policy.choose(vm(0.5), lcs), 2u);
}

TEST(Placement, ReturnsNullWhenNothingFits) {
  FirstFitPlacement policy;
  const std::vector<LcInfo> lcs{lc_info(1, 0.8, 0.8), lc_info(2, 0.9, 0.9)};
  EXPECT_EQ(policy.choose(vm(0.5), lcs), net::kNullAddress);
}

TEST(Placement, RoundRobinSpreadsLoad) {
  RoundRobinPlacement policy;
  const std::vector<LcInfo> lcs{lc_info(1, 0.0, 0.0), lc_info(2, 0.0, 0.0),
                                lc_info(3, 0.0, 0.0)};
  const auto a = policy.choose(vm(0.1), lcs);
  const auto b = policy.choose(vm(0.1), lcs);
  EXPECT_NE(a, b);
}

TEST(Placement, BestFitPicksTightest) {
  BestFitPlacement policy;
  const std::vector<LcInfo> lcs{lc_info(1, 0.1, 0.1), lc_info(2, 0.45, 0.45),
                                lc_info(3, 0.3, 0.3)};
  // A 0.5 VM fits on 1 (residual 0.4/dim), on 2 (residual 0.05), on 3 (0.2).
  EXPECT_EQ(policy.choose(vm(0.5), lcs), 2u);
}

TEST(Placement, FactoryReturnsRequestedKind) {
  EXPECT_NE(dynamic_cast<FirstFitPlacement*>(
                make_placement_policy(PlacementPolicyKind::kFirstFit).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<RoundRobinPlacement*>(
                make_placement_policy(PlacementPolicyKind::kRoundRobin).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<BestFitPlacement*>(
                make_placement_policy(PlacementPolicyKind::kBestFit).get()),
            nullptr);
}

// --- Assignment policies -----------------------------------------------------------------

TEST(Assignment, RoundRobinCycles) {
  RoundRobinAssignment policy;
  const std::vector<GmInfo> gms{gm_info(1, 0.1), gm_info(2, 0.1)};
  const auto a = policy.assign(gms);
  const auto b = policy.assign(gms);
  const auto c = policy.assign(gms);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);
}

TEST(Assignment, EmptyYieldsNull) {
  RoundRobinAssignment rr;
  EXPECT_EQ(rr.assign({}), net::kNullAddress);
}

// --- Relocation planning ---------------------------------------------------------------

std::vector<VmLoad> make_loads(std::initializer_list<double> sizes) {
  std::vector<VmLoad> out;
  VmId id = 1;
  for (double s : sizes) {
    VmLoad load;
    load.vm = id++;
    load.estimated = {s, s, s};
    load.requested = {s, s, s};
    out.push_back(load);
  }
  return out;
}

TEST(Relocation, OverloadMovesBiggestVmFirst) {
  LcInfo hot = lc_info(1, 0.95, 0.95);
  const auto vms = make_loads({0.5, 0.3, 0.15});
  const std::vector<LcInfo> others{lc_info(2, 0.1, 0.1)};
  const auto plan = plan_overload_relocation(hot, vms, others, 0.9);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan[0].vm, 1u);  // the 0.5 VM
  EXPECT_EQ(plan[0].to, 2u);
}

TEST(Relocation, OverloadStopsOnceBelowThreshold) {
  LcInfo hot = lc_info(1, 0.95, 0.95);
  const auto vms = make_loads({0.4, 0.3, 0.25});
  const std::vector<LcInfo> others{lc_info(2, 0.0, 0.0), lc_info(3, 0.0, 0.0)};
  const auto plan = plan_overload_relocation(hot, vms, others, 0.9);
  // Moving the single 0.4 VM brings 0.95 -> 0.55 < 0.9: one move suffices.
  EXPECT_EQ(plan.size(), 1u);
}

TEST(Relocation, OverloadAvoidsOverloadingTargets) {
  LcInfo hot = lc_info(1, 0.95, 0.95);
  const auto vms = make_loads({0.5});
  // Target already at 0.6: adding 0.5 would overload it.
  const std::vector<LcInfo> others{lc_info(2, 0.6, 0.6)};
  const auto plan = plan_overload_relocation(hot, vms, others, 0.9);
  EXPECT_TRUE(plan.empty());
}

TEST(Relocation, UnderloadEvacuatesEverything) {
  LcInfo cold = lc_info(1, 0.15, 0.15);
  const auto vms = make_loads({0.1, 0.05});
  const std::vector<LcInfo> others{lc_info(2, 0.5, 0.5), lc_info(3, 0.4, 0.4)};
  const auto plan =
      plan_underload_relocation(cold, vms, others, 0.2, 0.9);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(Relocation, UnderloadPrefersModeratelyLoadedTargets) {
  LcInfo cold = lc_info(1, 0.1, 0.1);
  const auto vms = make_loads({0.1});
  // Peer 2 is itself underloaded; peer 3 is moderately loaded.
  const std::vector<LcInfo> others{lc_info(2, 0.05, 0.05), lc_info(3, 0.5, 0.5)};
  const auto plan = plan_underload_relocation(cold, vms, others, 0.2, 0.9);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].to, 3u);
}

TEST(Relocation, UnderloadAllOrNothing) {
  LcInfo cold = lc_info(1, 0.6, 0.15);
  const auto vms = make_loads({0.3, 0.3});
  // Only room for one of the two VMs elsewhere: plan must be empty.
  const std::vector<LcInfo> others{lc_info(2, 0.6, 0.5)};
  const auto plan = plan_underload_relocation(cold, vms, others, 0.2, 0.9);
  EXPECT_TRUE(plan.empty());
}

TEST(Relocation, UnderloadRejectsPingPongPlans) {
  LcInfo cold = lc_info(1, 0.1, 0.1);
  const auto vms = make_loads({0.05, 0.05});
  // Only an empty peer exists: after receiving 0.1 total it would still be
  // underloaded (<= 0.2) and would bounce the VMs right back. No plan.
  const std::vector<LcInfo> others{lc_info(2, 0.0, 0.0)};
  EXPECT_TRUE(plan_underload_relocation(cold, vms, others, 0.2, 0.9).empty());
}

TEST(Relocation, UnderloadAcceptsPlanThatCrossesThreshold) {
  LcInfo cold = lc_info(1, 0.15, 0.15);
  const auto vms = make_loads({0.15});
  // Target at 0.1: receiving 0.15 puts it at 0.25 > 0.2 -> stable home.
  const std::vector<LcInfo> others{lc_info(2, 0.1, 0.1)};
  EXPECT_EQ(plan_underload_relocation(cold, vms, others, 0.2, 0.9).size(), 1u);
}

TEST(Relocation, EmptyVmListNoMoves) {
  LcInfo cold = lc_info(1, 0.0, 0.0);
  EXPECT_TRUE(plan_underload_relocation(cold, {}, {lc_info(2, 0.5, 0.5)}, 0.2, 0.9)
                  .empty());
  EXPECT_TRUE(plan_overload_relocation(cold, {}, {lc_info(2, 0.5, 0.5)}, 0.9).empty());
}

// --- TraceSpec materialization ------------------------------------------------------------

TEST(TraceSpec, ConstantKind) {
  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kConstant;
  spec.a = 0.3;
  const auto f = make_trace(spec);
  EXPECT_DOUBLE_EQ(f(100.0), 0.3);
}

TEST(TraceSpec, SinusoidalKind) {
  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kSinusoidal;
  spec.a = 0.5;
  spec.b = 0.2;
  spec.c = 100.0;
  const auto f = make_trace(spec);
  EXPECT_NEAR(f(25.0), 0.7, 1e-9);
}

TEST(TraceSpec, RandomStepsDeterministic) {
  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kRandomSteps;
  spec.a = 0.2;
  spec.b = 0.8;
  spec.c = 10.0;
  spec.seed = 5;
  const auto f = make_trace(spec);
  const auto g = make_trace(spec);
  EXPECT_DOUBLE_EQ(f(33.0), g(33.0));
}

TEST(TraceSpec, OnOffKind) {
  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kOnOff;
  spec.a = 0.1;
  spec.b = 0.9;
  spec.c = 50.0;
  spec.d = 0.5;
  const auto f = make_trace(spec);
  bool low = false, high = false;
  for (double t = 0; t < 50.0; t += 1.0) {
    if (f(t) < 0.5) low = true;
    if (f(t) > 0.5) high = true;
  }
  EXPECT_TRUE(low && high);
}

}  // namespace
