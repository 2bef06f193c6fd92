// Consolidation invariant property tests.
//
// Every packing algorithm in the repository — the greedy family, the
// centralized ACO and the distributed (sharded) ACO — must produce a
// placement that assigns every VM exactly once without exceeding any host
// capacity, on any instance that is packable at all (one host per VM makes
// that trivially true here). The migration plans derived from any pair of
// such placements must apply cleanly: each move's source matches the current
// placement, and the applied result is exactly the target.
//
// 50 seeded random instances of varying size and demand skew; failures
// report the seed, so any regression reproduces with a one-line repro.
//
// AcoSolver.MatchesReferenceSolver checks the ACO solver against the
// straightforward form of the same algorithm, kept here as its reference:
// every pick raises tau to alpha and eta to beta for every candidate. The
// solver computes each of those powers once per value it can take, from the
// same operands in the same order, so both must return the same placement,
// per-cycle best and host count bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "consolidation/aco.hpp"
#include "consolidation/distributed_aco.hpp"
#include "consolidation/greedy.hpp"
#include "consolidation/instance.hpp"
#include "consolidation/migration_plan.hpp"
#include "util/rng.hpp"

namespace {

using namespace snooze;
using consolidation::Instance;
using consolidation::kUnassigned;
using consolidation::Placement;

/// Random homogeneous instance; skews the demand band by seed so the suite
/// covers loose (many tiny VMs per host) and tight (near-half-host VMs,
/// two-per-host at best) packings.
Instance make_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n_vms = rng.uniform_int<std::size_t>(10, 60);
  const double lo = rng.uniform(0.02, 0.15);
  const double hi = rng.uniform(lo + 0.05, 0.48);
  std::vector<consolidation::ResourceVector> demands;
  demands.reserve(n_vms);
  for (std::size_t i = 0; i < n_vms; ++i) {
    demands.emplace_back(rng.uniform(lo, hi), rng.uniform(lo, hi),
                         rng.uniform(lo, hi));
  }
  return Instance::homogeneous(std::move(demands), n_vms);
}

/// Full structural check: complete, every assignment in range, feasible.
void expect_valid(const Placement& placement, const Instance& instance,
                  const char* solver) {
  ASSERT_EQ(placement.vm_count(), instance.vm_count()) << solver;
  for (std::size_t vm = 0; vm < placement.vm_count(); ++vm) {
    const auto host = placement.host_of(vm);
    ASSERT_NE(host, kUnassigned) << solver << ": vm " << vm << " unplaced";
    ASSERT_LT(static_cast<std::size_t>(host), instance.host_count())
        << solver << ": vm " << vm << " on out-of-range host " << host;
  }
  EXPECT_TRUE(placement.complete()) << solver;
  EXPECT_TRUE(placement.feasible(instance)) << solver << ": capacity exceeded";
  EXPECT_GE(placement.hosts_used(), instance.lower_bound_hosts()) << solver;
}

/// Apply `plan` to a copy of `current`, checking each move's precondition.
Placement apply_plan(const consolidation::MigrationPlan& plan,
                     const Placement& current) {
  Placement applied = current;
  for (const auto& m : plan.migrations) {
    EXPECT_EQ(applied.host_of(m.vm), m.from)
        << "migration source does not match the current placement for vm "
        << m.vm;
    EXPECT_NE(m.from, m.to) << "no-op migration for vm " << m.vm;
    applied.assign(m.vm, m.to);
  }
  return applied;
}

TEST(ConsolidationProperty, AllSolversProduceFeasiblePlacements) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = make_instance(seed);

    const Placement ff = consolidation::first_fit(instance);
    const Placement ffd = consolidation::first_fit_decreasing(instance);
    const Placement bfd = consolidation::best_fit_decreasing(instance);
    const Placement dot = consolidation::dot_product_fit(instance);
    expect_valid(ff, instance, "first_fit");
    expect_valid(ffd, instance, "first_fit_decreasing");
    expect_valid(bfd, instance, "best_fit_decreasing");
    expect_valid(dot, instance, "dot_product_fit");

    consolidation::AcoParams aco_params;
    aco_params.ants = 4;
    aco_params.cycles = 3;
    aco_params.seed = seed;
    const auto aco = consolidation::AcoConsolidation(aco_params).solve(instance);
    EXPECT_TRUE(aco.feasible) << "aco declared its own result infeasible";
    expect_valid(aco.placement, instance, "aco");
    EXPECT_EQ(aco.hosts_used, aco.placement.hosts_used()) << "aco";

    consolidation::DistributedAcoParams daco_params;
    daco_params.shards = 2;
    daco_params.colony = aco_params;
    const auto daco =
        consolidation::DistributedAcoConsolidation(daco_params).solve(instance);
    EXPECT_TRUE(daco.feasible) << "distributed aco declared itself infeasible";
    expect_valid(daco.placement, instance, "distributed_aco");

    // The decreasing greedy variants must never do worse than the lower
    // bound says is possible; ACO must never do worse than its own greedy
    // fallback guarantees (first-fit completeness).
    EXPECT_LE(aco.hosts_used, instance.host_count());
  }
}

TEST(ConsolidationProperty, MigrationPlansApplyCleanly) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = make_instance(seed);

    // A typical reconfiguration: the system is running the quick greedy
    // placement and the optimizer proposes a tighter one.
    const Placement current = consolidation::first_fit(instance);
    consolidation::AcoParams params;
    params.ants = 4;
    params.cycles = 3;
    params.seed = seed;
    const Placement target =
        consolidation::AcoConsolidation(params).solve(instance).placement;

    const auto plan = consolidation::diff_placements(current, target);
    const Placement applied = apply_plan(plan, current);
    EXPECT_EQ(applied, target) << "applying the plan must yield the target";
    EXPECT_TRUE(applied.feasible(instance));

    // A placement diffed against itself must be a no-op plan.
    EXPECT_TRUE(consolidation::diff_placements(current, current).empty());
  }
}

// --- Reference ACO solver ---------------------------------------------------

namespace reference {

using namespace snooze::consolidation;

/// One ant's walk: fill hosts in index order, choosing the next VM among the
/// feasible ones by the probabilistic decision rule.
Placement construct_solution(const Instance& instance,
                             const std::vector<std::vector<double>>& tau,
                             const AcoParams& params, util::Rng& rng) {
  const std::size_t n = instance.vm_count();
  Placement placement(n);
  std::vector<bool> assigned(n, false);
  std::size_t remaining = n;

  std::vector<double> weights;
  std::vector<std::size_t> feasible;

  for (std::size_t host = 0; host < instance.host_count() && remaining > 0; ++host) {
    ResourceVector residual = instance.host_capacities[host];
    for (;;) {
      feasible.clear();
      weights.clear();
      for (std::size_t vm = 0; vm < n; ++vm) {
        if (assigned[vm]) continue;
        if (!instance.vm_demands[vm].fits_within(residual)) continue;
        feasible.push_back(vm);
        const double eta = aco_heuristic(residual, instance.vm_demands[vm]);
        const double t = tau[vm][host];
        double w = std::pow(t, params.alpha) * std::pow(eta, params.beta);
        if (!std::isfinite(w) || w <= 0.0) w = 1e-12;
        weights.push_back(w);
      }
      if (feasible.empty()) break;
      const std::size_t pick = rng.weighted_index(weights);
      const std::size_t vm = feasible[pick < feasible.size() ? pick : 0];
      placement.assign(vm, static_cast<HostIndex>(host));
      residual -= instance.vm_demands[vm];
      assigned[vm] = true;
      --remaining;
    }
  }
  return placement;
}

/// Secondary quality used to break host-count ties: total squared residual
/// of used hosts (lower = tighter packing).
double packing_slack(const Instance& instance, const Placement& placement) {
  const auto loads = placement.loads(instance);
  double slack = 0.0;
  for (std::size_t h = 0; h < loads.size(); ++h) {
    if (loads[h] == ResourceVector{}) continue;
    const ResourceVector residual = instance.host_capacities[h] - loads[h];
    slack += residual.dot(residual);
  }
  return slack;
}

/// AcoConsolidation::solve with `params_` passed in; the body is unchanged.
AcoResult solve(const AcoParams& params_, const Instance& instance) {
  const auto wall_start = std::chrono::steady_clock::now();

  AcoResult result;
  const std::size_t n = instance.vm_count();
  result.placement = Placement(n);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Pheromone matrix over (VM, host) pairs.
  std::vector<std::vector<double>> tau(
      n, std::vector<double>(instance.host_count(), params_.tau0));

  util::Rng master(params_.seed);
  std::size_t best_hosts = instance.host_count() + 1;
  double best_slack = std::numeric_limits<double>::infinity();
  bool have_best = false;

  for (std::size_t cycle = 0; cycle < params_.cycles; ++cycle) {
    // Pre-fork one RNG per ant.
    std::vector<util::Rng> rngs;
    rngs.reserve(params_.ants);
    for (std::size_t a = 0; a < params_.ants; ++a) rngs.push_back(master.fork());

    std::vector<Placement> solutions(params_.ants);
    auto run_ant = [&](std::size_t a) {
      solutions[a] = construct_solution(instance, tau, params_, rngs[a]);
    };
    for (std::size_t a = 0; a < params_.ants; ++a) run_ant(a);

    // Compare local solutions; keep the fewest hosts used.
    for (auto& solution : solutions) {
      if (!solution.complete()) continue;  // instance not packable by this walk
      const std::size_t hosts = solution.hosts_used();
      const double slack = packing_slack(instance, solution);
      if (!have_best || hosts < best_hosts || (hosts == best_hosts && slack < best_slack)) {
        best_hosts = hosts;
        best_slack = slack;
        result.placement = std::move(solution);
        have_best = true;
      }
    }

    // Pheromone update: evaporation everywhere, reinforcement on the pairs
    // of the best-so-far solution (elitist global update).
    const double keep = 1.0 - params_.rho;
    for (auto& row : tau) {
      for (double& t : row) t *= keep;
    }
    if (have_best) {
      const double deposit =
          params_.rho * params_.q / static_cast<double>(std::max<std::size_t>(1, best_hosts));
      for (std::size_t vm = 0; vm < n; ++vm) {
        const HostIndex h = result.placement.host_of(vm);
        if (h != kUnassigned) tau[vm][static_cast<std::size_t>(h)] += deposit;
      }
    }
    result.best_per_cycle.push_back(have_best ? best_hosts : 0);
  }

  result.hosts_used = have_best ? best_hosts : 0;
  result.feasible = have_best && result.placement.feasible(instance);
  result.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace reference

/// Differential instance for `seed`. The family cycles with seed % 4: one
/// flavor, a few flavors, continuous sizes, or flavors mixed with continuous
/// sizes (the live consolidation loop's shape). Independently of the family,
/// seed % 5 < 2 gives heterogeneous host capacities, and seed % 3 picks one
/// host per VM, about one per two, or about one per four (which may leave
/// VMs unplaced, so no walk completes).
Instance differential_instance(std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 17);
  const std::vector<consolidation::ResourceVector> menu = {
      {0.125, 0.125, 0.125}, {0.25, 0.125, 0.0625}, {0.5, 0.25, 0.25},
      {0.0625, 0.25, 0.125}, {0.3, 0.3, 0.1}};
  const std::size_t family = seed % 4;
  const std::size_t flavors =
      family == 0 ? 1 : rng.uniform_int<std::size_t>(2, menu.size());
  const std::size_t first = rng.uniform_int<std::size_t>(0, menu.size() - flavors);
  const std::size_t n_vms = rng.uniform_int<std::size_t>(1, 48);

  Instance instance;
  for (std::size_t i = 0; i < n_vms; ++i) {
    if (family == 2 || (family == 3 && rng.chance(0.3))) {
      instance.vm_demands.emplace_back(rng.uniform(0.02, 0.45), rng.uniform(0.02, 0.45),
                                       rng.uniform(0.02, 0.45));
    } else {
      instance.vm_demands.push_back(
          menu[first + rng.uniform_int<std::size_t>(0, flavors - 1)]);
    }
  }
  const std::size_t n_hosts = seed % 3 == 0 ? n_vms : n_vms / (seed % 3 == 1 ? 2 : 4) + 1;
  const bool heterogeneous = seed % 5 < 2;
  for (std::size_t h = 0; h < n_hosts; ++h) {
    if (heterogeneous) {
      instance.host_capacities.emplace_back(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5),
                                            rng.uniform(0.5, 1.5));
    } else {
      instance.host_capacities.emplace_back(1.0, 1.0, 1.0);
    }
  }
  return instance;
}

/// Colony parameters for `seed`: non-integer exponents, tau0 away from 1,
/// and every evaporation regime.
consolidation::AcoParams differential_params(std::uint64_t seed) {
  util::Rng rng(seed);
  const double alphas[] = {1.0, 0.7, 2.0, 1.3};
  const double betas[] = {2.0, 2.5, 0.5, 1.0};
  const double tau0s[] = {1.0, 0.4, 3.0};
  const double rhos[] = {0.3, 0.1, 0.9, 1.0};
  consolidation::AcoParams params;
  params.ants = rng.uniform_int<std::size_t>(1, 6);
  params.cycles = rng.uniform_int<std::size_t>(1, 5);
  params.alpha = alphas[rng.uniform_int<std::size_t>(0, 3)];
  params.beta = betas[rng.uniform_int<std::size_t>(0, 3)];
  params.tau0 = tau0s[rng.uniform_int<std::size_t>(0, 2)];
  params.rho = rhos[rng.uniform_int<std::size_t>(0, 3)];
  params.seed = seed;
  return params;
}

TEST(AcoSolver, MatchesReferenceSolver) {
  std::size_t complete = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance instance = differential_instance(seed);
    const consolidation::AcoParams params = differential_params(seed);
    const auto expected = reference::solve(params, instance);
    const auto got = consolidation::AcoConsolidation(params).solve(instance);
    ASSERT_EQ(got.placement.raw(), expected.placement.raw());
    ASSERT_EQ(got.best_per_cycle, expected.best_per_cycle);
    ASSERT_EQ(got.hosts_used, expected.hosts_used);
    ASSERT_EQ(got.feasible, expected.feasible);
    if (expected.feasible) ++complete;
  }
  // Most instances pack; the one-host-per-four ones may not.
  EXPECT_GT(complete, 160u);
}

}  // namespace
