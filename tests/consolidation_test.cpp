// Tests for the consolidation library: instance/placement invariants, the
// FFD/BFD greedy family, the ACO algorithm (§III.A), the exact
// branch-and-bound solver (CPLEX substitute), metrics and migration plans.
#include <gtest/gtest.h>

#include "consolidation/aco.hpp"
#include "consolidation/exact.hpp"
#include "consolidation/greedy.hpp"
#include "consolidation/metrics.hpp"
#include "consolidation/migration_plan.hpp"
#include "workload/vm_generator.hpp"

namespace {

using namespace snooze;
using namespace snooze::consolidation;
using hypervisor::ResourceVector;

Instance uniform_instance(std::size_t n, std::uint64_t seed, double lo = 0.1,
                          double hi = 0.4) {
  workload::UniformVmGenerator gen(lo, hi, seed);
  std::vector<ResourceVector> demands;
  for (std::size_t i = 0; i < n; ++i) demands.push_back(gen.next().requested);
  return Instance::homogeneous(std::move(demands), n);  // one host per VM suffices
}

// --- Instance / Placement -----------------------------------------------------

TEST(Instance, HomogeneousBuilder) {
  const auto inst = Instance::homogeneous({{0.5, 0.5, 0.5}}, 3);
  EXPECT_EQ(inst.vm_count(), 1u);
  EXPECT_EQ(inst.host_count(), 3u);
  EXPECT_EQ(inst.host_capacities[2], (ResourceVector{1.0, 1.0, 1.0}));
}

TEST(Instance, LowerBoundUsesBottleneckDimension) {
  // Three VMs at 0.5 CPU -> ceil(1.5/1.0) = 2 hosts at least.
  const auto inst = Instance::homogeneous(
      {{0.5, 0.1, 0.1}, {0.5, 0.1, 0.1}, {0.5, 0.1, 0.1}}, 10);
  EXPECT_EQ(inst.lower_bound_hosts(), 2u);
}

TEST(Instance, LowerBoundEmptyIsZero) {
  const auto inst = Instance::homogeneous({}, 5);
  EXPECT_EQ(inst.lower_bound_hosts(), 0u);
}

TEST(Placement, FeasibleDetectsOverflow) {
  const auto inst = Instance::homogeneous({{0.6, 0.1, 0.1}, {0.6, 0.1, 0.1}}, 2);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);  // 1.2 CPU on one host: infeasible
  EXPECT_FALSE(p.feasible(inst));
  p.assign(1, 1);
  EXPECT_TRUE(p.feasible(inst));
}

TEST(Placement, IncompleteIsInfeasible) {
  const auto inst = Instance::homogeneous({{0.1, 0.1, 0.1}}, 1);
  Placement p(1);
  EXPECT_FALSE(p.complete());
  EXPECT_FALSE(p.feasible(inst));
}

TEST(Placement, HostsUsedCountsDistinct) {
  Placement p(4);
  p.assign(0, 2);
  p.assign(1, 2);
  p.assign(2, 0);
  p.assign(3, 5);
  EXPECT_EQ(p.hosts_used(), 3u);
}

TEST(Placement, LoadsAggregatePerHost) {
  const auto inst = Instance::homogeneous({{0.2, 0.1, 0.0}, {0.3, 0.1, 0.0}}, 2);
  Placement p(2);
  p.assign(0, 1);
  p.assign(1, 1);
  const auto loads = p.loads(inst);
  EXPECT_DOUBLE_EQ(loads[1].cpu(), 0.5);
  EXPECT_DOUBLE_EQ(loads[0].cpu(), 0.0);
}

// --- Greedy family ---------------------------------------------------------------

TEST(Greedy, FirstFitPacksPerfectHalves) {
  const auto inst = Instance::homogeneous(
      {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, 4);
  const auto p = first_fit(inst);
  EXPECT_TRUE(p.feasible(inst));
  EXPECT_EQ(p.hosts_used(), 2u);
}

TEST(Greedy, FfdSortsDecreasing) {
  // Without sorting, first-fit on {0.3,0.7,0.3,0.7} wastes a host.
  const auto inst = Instance::homogeneous(
      {{0.3, 0.3, 0.3}, {0.7, 0.7, 0.7}, {0.3, 0.3, 0.3}, {0.7, 0.7, 0.7}}, 4);
  const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);
  EXPECT_TRUE(ffd.feasible(inst));
  EXPECT_EQ(ffd.hosts_used(), 2u);
}

TEST(Greedy, SingleDimensionPresortCanLose) {
  // The paper's critique: sorting by CPU only ignores the other dimensions.
  // VM demands chosen so CPU-sorted order interleaves memory-heavy VMs badly.
  std::vector<ResourceVector> demands = {
      {0.9, 0.1, 0.1}, {0.8, 0.9, 0.1}, {0.7, 0.1, 0.9}, {0.1, 0.8, 0.8},
  };
  const auto inst = Instance::homogeneous(std::move(demands), 4);
  const auto by_cpu = first_fit_decreasing(inst, SortKey::kCpu);
  const auto by_l2 = first_fit_decreasing(inst, SortKey::kL2);
  EXPECT_TRUE(by_cpu.feasible(inst));
  EXPECT_TRUE(by_l2.feasible(inst));
  // Both are valid; the point is they may differ — record the invariant that
  // neither violates capacity and both place all VMs.
  EXPECT_EQ(by_cpu.vm_count(), 4u);
}

TEST(Greedy, AllSortKeysProduceFeasiblePackings) {
  const auto inst = uniform_instance(60, 123);
  for (SortKey key : {SortKey::kNone, SortKey::kCpu, SortKey::kMemory,
                      SortKey::kNetwork, SortKey::kL1, SortKey::kL2, SortKey::kMaxDim}) {
    const auto p = first_fit(inst, key);
    EXPECT_TRUE(p.feasible(inst)) << to_string(key);
  }
}

TEST(Greedy, BfdFeasibleAndNoWorseThanFf) {
  const auto inst = uniform_instance(80, 7);
  const auto bfd = best_fit_decreasing(inst);
  const auto ff = first_fit(inst);
  EXPECT_TRUE(bfd.feasible(inst));
  EXPECT_LE(bfd.hosts_used(), ff.hosts_used() + 2);  // typically <=; allow slack
}

TEST(Greedy, UnpackableVmStaysUnassigned) {
  Instance inst;
  inst.vm_demands = {{2.0, 0.1, 0.1}};  // bigger than any host
  inst.host_capacities = {{1.0, 1.0, 1.0}};
  const auto p = first_fit(inst);
  EXPECT_EQ(p.host_of(0), kUnassigned);
  EXPECT_FALSE(p.feasible(inst));
}

TEST(Greedy, DotProductFitFeasible) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto inst = uniform_instance(60, seed);
    const auto p = dot_product_fit(inst);
    EXPECT_TRUE(p.feasible(inst)) << "seed " << seed;
    EXPECT_GE(p.hosts_used(), inst.lower_bound_hosts());
  }
}

TEST(Greedy, DotProductPacksPerfectHalves) {
  const auto inst = Instance::homogeneous(
      {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, 4);
  EXPECT_EQ(dot_product_fit(inst).hosts_used(), 2u);
}

TEST(Greedy, DotProductCompetitiveWithFfdCpu) {
  // On multi-dimensional demands the dot-product rule should not lose to the
  // single-dimension presort on aggregate.
  std::size_t dp_total = 0;
  std::size_t ffd_total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = uniform_instance(70, seed);
    dp_total += dot_product_fit(inst).hosts_used();
    ffd_total += first_fit_decreasing(inst, SortKey::kCpu).hosts_used();
  }
  EXPECT_LE(dp_total, ffd_total);
}

TEST(Greedy, DotProductUnpackableVmLeftUnassigned) {
  Instance inst;
  inst.vm_demands = {{2.0, 0.1, 0.1}};
  inst.host_capacities = {{1.0, 1.0, 1.0}};
  EXPECT_EQ(dot_product_fit(inst).host_of(0), kUnassigned);
}

TEST(Greedy, SortValueMatchesKey) {
  const ResourceVector v{3.0, 4.0, 0.0};
  EXPECT_DOUBLE_EQ(sort_value(v, SortKey::kCpu), 3.0);
  EXPECT_DOUBLE_EQ(sort_value(v, SortKey::kMemory), 4.0);
  EXPECT_DOUBLE_EQ(sort_value(v, SortKey::kL1), 7.0);
  EXPECT_DOUBLE_EQ(sort_value(v, SortKey::kL2), 5.0);
  EXPECT_DOUBLE_EQ(sort_value(v, SortKey::kMaxDim), 4.0);
}

// --- ACO ------------------------------------------------------------------------

TEST(Aco, EmptyInstanceIsTriviallyFeasible) {
  const auto inst = Instance::homogeneous({}, 0);
  const auto result = AcoConsolidation().solve(inst);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.hosts_used, 0u);
}

TEST(Aco, SolvesPerfectPacking) {
  const auto inst = Instance::homogeneous(
      {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, 4);
  AcoParams params;
  params.seed = 3;
  const auto result = AcoConsolidation(params).solve(inst);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.hosts_used, 2u);
}

TEST(Aco, FeasibleOnRandomInstances) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto inst = uniform_instance(50, seed);
    AcoParams params;
    params.seed = seed;
    const auto result = AcoConsolidation(params).solve(inst);
    EXPECT_TRUE(result.feasible);
    EXPECT_GE(result.hosts_used, inst.lower_bound_hosts());
  }
}

TEST(Aco, DeterministicForSeed) {
  const auto inst = uniform_instance(40, 5);
  AcoParams params;
  params.seed = 99;
  const auto a = AcoConsolidation(params).solve(inst);
  const auto b = AcoConsolidation(params).solve(inst);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.hosts_used, b.hosts_used);
}

TEST(Aco, BestPerCycleIsMonotoneNonIncreasing) {
  const auto inst = uniform_instance(60, 11);
  AcoParams params;
  params.cycles = 8;
  params.seed = 11;
  const auto result = AcoConsolidation(params).solve(inst);
  ASSERT_EQ(result.best_per_cycle.size(), params.cycles);
  for (std::size_t c = 1; c < result.best_per_cycle.size(); ++c) {
    EXPECT_LE(result.best_per_cycle[c], result.best_per_cycle[c - 1]);
  }
}

TEST(Aco, BeatsOrMatchesFfdOnAverage) {
  // The paper's headline claim (§III.B): ACO uses fewer hosts than FFD.
  int aco_total = 0;
  int ffd_total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = uniform_instance(60, seed, 0.1, 0.45);
    AcoParams params;
    params.seed = seed;
    params.ants = 8;
    params.cycles = 8;
    const auto aco = AcoConsolidation(params).solve(inst);
    const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);
    ASSERT_TRUE(aco.feasible);
    ASSERT_TRUE(ffd.feasible(inst));
    aco_total += static_cast<int>(aco.hosts_used);
    ffd_total += static_cast<int>(ffd.hosts_used());
  }
  EXPECT_LE(aco_total, ffd_total);
}

TEST(Aco, RuntimeIsMeasured) {
  const auto inst = uniform_instance(30, 2);
  const auto result = AcoConsolidation().solve(inst);
  EXPECT_GT(result.runtime_s, 0.0);
}

TEST(Aco, HeuristicPrefersTightFit) {
  const ResourceVector residual{0.5, 0.5, 0.5};
  const ResourceVector tight{0.5, 0.5, 0.5};
  const ResourceVector loose{0.1, 0.1, 0.1};
  EXPECT_GT(aco_heuristic(residual, tight), aco_heuristic(residual, loose));
}

TEST(Aco, SingleAntSingleCycleStillFeasible) {
  const auto inst = uniform_instance(30, 4);
  AcoParams params;
  params.ants = 1;
  params.cycles = 1;
  params.seed = 4;
  const auto result = AcoConsolidation(params).solve(inst);
  EXPECT_TRUE(result.feasible);
}

TEST(Aco, InfeasibleInstanceReported) {
  Instance inst;
  inst.vm_demands = {{0.9, 0.1, 0.1}, {0.9, 0.1, 0.1}};
  inst.host_capacities = {{1.0, 1.0, 1.0}};  // only one host: can't hold both
  const auto result = AcoConsolidation().solve(inst);
  EXPECT_FALSE(result.feasible);
}

// --- Exact solver -----------------------------------------------------------------

TEST(Exact, TrivialInstances) {
  EXPECT_TRUE(solve_exact(Instance::homogeneous({}, 0)).optimal);
  const auto one = solve_exact(Instance::homogeneous({{0.5, 0.5, 0.5}}, 1));
  EXPECT_TRUE(one.optimal);
  EXPECT_EQ(one.hosts_used, 1u);
}

TEST(Exact, FindsPerfectPacking) {
  // Six VMs of 1/3 each pack into exactly 2 hosts.
  std::vector<ResourceVector> demands(6, ResourceVector{1.0 / 3, 1.0 / 3, 1.0 / 3});
  const auto result = solve_exact(Instance::homogeneous(std::move(demands), 6));
  EXPECT_TRUE(result.optimal);
  EXPECT_EQ(result.hosts_used, 2u);
  EXPECT_TRUE(result.placement.feasible(
      Instance::homogeneous(std::vector<ResourceVector>(
                                6, ResourceVector{1.0 / 3, 1.0 / 3, 1.0 / 3}),
                            6)));
}

TEST(Exact, BeatsGreedyOnAdversarialInstance) {
  // Classic FFD failure: 4 x {0.42, 0.32, 0.26}. Optimal packs each triple
  // into one bin (sum 1.00) = 4 bins; FFD pairs the 0.42s and wastes a bin.
  std::vector<ResourceVector> demands;
  for (double x : {0.42, 0.42, 0.42, 0.42, 0.32, 0.32, 0.32, 0.32,
                   0.26, 0.26, 0.26, 0.26}) {
    demands.push_back({x, 0.01, 0.01});
  }
  const auto inst = Instance::homogeneous(std::move(demands), 12);
  const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);
  EXPECT_EQ(ffd.hosts_used(), 5u);  // FFD provably suboptimal here
  const auto exact = solve_exact(inst);
  ASSERT_TRUE(exact.optimal);
  EXPECT_EQ(exact.hosts_used, 4u);
}

TEST(Exact, NeverWorseThanHeuristicsOnSmallInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = uniform_instance(12, seed, 0.15, 0.5);
    const auto exact = solve_exact(inst);
    ASSERT_TRUE(exact.optimal) << "seed " << seed;
    ASSERT_TRUE(exact.feasible);
    const auto ffd = first_fit_decreasing(inst);
    const auto bfd = best_fit_decreasing(inst);
    AcoParams params;
    params.seed = seed;
    const auto aco = AcoConsolidation(params).solve(inst);
    EXPECT_LE(exact.hosts_used, ffd.hosts_used()) << "seed " << seed;
    EXPECT_LE(exact.hosts_used, bfd.hosts_used()) << "seed " << seed;
    EXPECT_LE(exact.hosts_used, aco.hosts_used) << "seed " << seed;
    EXPECT_GE(exact.hosts_used, inst.lower_bound_hosts()) << "seed " << seed;
  }
}

namespace {

/// Reference optimum by exhaustive enumeration of every VM->host assignment
/// (only viable for tiny instances; anchors the branch-and-bound solver).
std::size_t brute_force_optimum(const Instance& inst) {
  const std::size_t n = inst.vm_count();
  const std::size_t h = inst.host_count();
  std::size_t best = h + 1;
  std::vector<std::size_t> assignment(n, 0);
  for (;;) {
    Placement p(n);
    for (std::size_t vm = 0; vm < n; ++vm) {
      p.assign(vm, static_cast<HostIndex>(assignment[vm]));
    }
    if (p.feasible(inst)) best = std::min(best, p.hosts_used());
    // Odometer increment over the h^n assignment space.
    std::size_t pos = 0;
    while (pos < n && ++assignment[pos] == h) {
      assignment[pos] = 0;
      ++pos;
    }
    if (pos == n) break;
  }
  return best;
}

}  // namespace

TEST(Exact, MatchesBruteForceOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = uniform_instance(6, seed, 0.2, 0.7);
    // 4 hosts keeps the enumeration at 4^6 = 4096 assignments.
    Instance small = inst;
    small.host_capacities.resize(4, ResourceVector{1.0, 1.0, 1.0});
    const std::size_t reference = brute_force_optimum(small);
    const auto exact = solve_exact(small);
    ASSERT_TRUE(exact.optimal) << "seed " << seed;
    EXPECT_EQ(exact.hosts_used, reference) << "seed " << seed;
  }
}

TEST(Exact, RespectsNodeLimit) {
  const auto inst = uniform_instance(40, 3, 0.05, 0.2);
  ExactParams params;
  params.node_limit = 0;  // aborts on the first node; must stay feasible
  const auto result = solve_exact(inst, params);
  EXPECT_FALSE(result.optimal);
  EXPECT_TRUE(result.feasible);  // warm-start incumbent still returned
}

TEST(Exact, HeterogeneousHosts) {
  Instance inst;
  inst.vm_demands = {{0.8, 0.1, 0.1}, {0.3, 0.1, 0.1}};
  inst.host_capacities = {{0.5, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  const auto result = solve_exact(inst);
  ASSERT_TRUE(result.feasible);
  // The 0.8-CPU VM only fits on host 1.
  EXPECT_EQ(result.placement.host_of(0), 1);
}

// --- Metrics ----------------------------------------------------------------------

TEST(Metrics, CountsUsedAndIdleHosts) {
  const auto inst = Instance::homogeneous(
      {{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, 4);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  EnergyWindow window;
  const auto m = evaluate_placement(inst, p, window);
  EXPECT_EQ(m.hosts_used, 1u);
  EXPECT_EQ(m.hosts_idle, 3u);
  EXPECT_DOUBLE_EQ(m.avg_cpu_utilization, 1.0);
}

TEST(Metrics, SuspendedIdleHostsDrawLess) {
  const auto inst = Instance::homogeneous({{0.5, 0.5, 0.5}}, 2);
  Placement p(1);
  p.assign(0, 0);
  EnergyWindow suspend;
  suspend.suspend_idle = true;
  EnergyWindow keep_on = suspend;
  keep_on.suspend_idle = false;
  const auto with_suspend = evaluate_placement(inst, p, suspend);
  const auto without = evaluate_placement(inst, p, keep_on);
  EXPECT_LT(with_suspend.energy_joules, without.energy_joules);
}

TEST(Metrics, ComputationEnergyIncluded) {
  const auto inst = Instance::homogeneous({{0.5, 0.5, 0.5}}, 1);
  Placement p(1);
  p.assign(0, 0);
  EnergyWindow window;
  window.mgmt_node_power_w = 100.0;
  const auto m = evaluate_placement(inst, p, window, /*algorithm_runtime_s=*/2.0);
  EXPECT_DOUBLE_EQ(m.computation_joules, 200.0);
  EXPECT_DOUBLE_EQ(m.total_joules(), m.energy_joules + 200.0);
}

TEST(Metrics, FewerHostsLessEnergy) {
  const auto inst = uniform_instance(40, 21);
  const auto ffd = first_fit_decreasing(inst);
  const auto ff = first_fit(inst);  // unsorted: usually more hosts
  EnergyWindow window;
  const auto m_ffd = evaluate_placement(inst, ffd, window);
  const auto m_ff = evaluate_placement(inst, ff, window);
  if (m_ffd.hosts_used < m_ff.hosts_used) {
    EXPECT_LT(m_ffd.energy_joules, m_ff.energy_joules);
  } else {
    EXPECT_LE(m_ffd.energy_joules, m_ff.energy_joules + 1e-6);
  }
}

// --- Migration plans ---------------------------------------------------------------

TEST(MigrationPlan, DiffFindsMovedVms) {
  Placement current(3), target(3);
  current.assign(0, 0);
  current.assign(1, 1);
  current.assign(2, 2);
  target.assign(0, 0);
  target.assign(1, 0);
  target.assign(2, 0);
  const auto plan = diff_placements(current, target);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.migrations[0].vm, 1u);
  EXPECT_EQ(plan.migrations[0].from, 1);
  EXPECT_EQ(plan.migrations[0].to, 0);
}

TEST(MigrationPlan, IdenticalPlacementsNeedNoMoves) {
  Placement p(2);
  p.assign(0, 1);
  p.assign(1, 0);
  EXPECT_TRUE(diff_placements(p, p).empty());
}

TEST(MigrationPlan, UnassignedVmsAreSkipped) {
  Placement current(2), target(2);
  current.assign(0, 0);  // vm 1 unassigned in current
  target.assign(0, 1);
  target.assign(1, 1);
  const auto plan = diff_placements(current, target);
  EXPECT_EQ(plan.size(), 1u);
}

TEST(MigrationPlan, CostSumsPerVmMigrations) {
  MigrationPlan plan;
  plan.migrations = {{0, 0, 1}, {1, 1, 0}};
  const std::vector<double> mem{1024.0, 2048.0};
  const std::vector<double> dirty{0.0, 0.0};
  hypervisor::MigrationModel model;
  model.bandwidth_mbps = 8000.0;  // 1000 MB/s
  const auto cost = plan_cost(plan, mem, dirty, model);
  EXPECT_NEAR(cost.total_migration_s, (1024.0 + 2048.0) / 1000.0, 1e-6);
  EXPECT_GT(cost.transferred_mb, 3000.0);
}

// --- Parameterized property sweep: every algorithm, many seeds ------------------------

struct PackCase {
  std::string name;
  std::function<Placement(const Instance&, std::uint64_t seed)> solve;
};

using AlgoSeed = std::tuple<int, std::uint64_t>;
class PackingProperty : public testing::TestWithParam<AlgoSeed> {};

TEST_P(PackingProperty, FeasibleAndAboveLowerBound) {
  const int algo = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());
  const auto inst = uniform_instance(45, seed, 0.08, 0.42);

  Placement p;
  switch (algo) {
    case 0: p = first_fit(inst); break;
    case 1: p = first_fit_decreasing(inst, SortKey::kCpu); break;
    case 2: p = first_fit_decreasing(inst, SortKey::kL2); break;
    case 3: p = best_fit_decreasing(inst); break;
    case 4: {
      AcoParams params;
      params.seed = seed;
      params.ants = 4;
      params.cycles = 4;
      p = AcoConsolidation(params).solve(inst).placement;
      break;
    }
    case 5: p = dot_product_fit(inst); break;
    default: FAIL();
  }
  ASSERT_TRUE(p.feasible(inst));
  EXPECT_GE(p.hosts_used(), inst.lower_bound_hosts());
  EXPECT_LE(p.hosts_used(), inst.vm_count());
  // No host exceeds capacity in any dimension (re-checked explicitly).
  const auto loads = p.loads(inst);
  for (std::size_t h = 0; h < loads.size(); ++h) {
    EXPECT_TRUE(loads[h].fits_within(inst.host_capacities[h]));
  }
}

std::string packing_case_name(const testing::TestParamInfo<AlgoSeed>& info) {
  static const char* names[] = {"FF", "FFDcpu", "FFDl2", "BFD", "ACO", "DotProduct"};
  return std::string(names[std::get<0>(info.param)]) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsManySeeds, PackingProperty,
    testing::Combine(testing::Range(0, 6),
                     testing::Values(std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
                                     std::uint64_t{4}, std::uint64_t{5}, std::uint64_t{6})),
    packing_case_name);

// ACO parameter sanity sweep: every (alpha, beta) combination stays feasible.
class AcoParamProperty
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AcoParamProperty, FeasibleForAllExponents) {
  AcoParams params;
  params.alpha = std::get<0>(GetParam());
  params.beta = std::get<1>(GetParam());
  params.ants = 4;
  params.cycles = 4;
  params.seed = 17;
  const auto inst = uniform_instance(35, 17);
  const auto result = AcoConsolidation(params).solve(inst);
  EXPECT_TRUE(result.feasible);
  EXPECT_GE(result.hosts_used, inst.lower_bound_hosts());
}

INSTANTIATE_TEST_SUITE_P(ExponentGrid, AcoParamProperty,
                         testing::Combine(testing::Values(0.0, 0.5, 1.0, 2.0),
                                          testing::Values(0.0, 1.0, 2.0, 4.0)));

}  // namespace
