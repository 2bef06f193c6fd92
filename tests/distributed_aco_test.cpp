// Tests for the distributed ACO consolidation (the paper's §V future work):
// feasibility, determinism, quality relative to the centralized colony, and
// the effect of the cooperative tail-repacking pass.
#include <gtest/gtest.h>

#include "consolidation/aco.hpp"
#include "consolidation/distributed_aco.hpp"
#include "consolidation/greedy.hpp"
#include "workload/vm_generator.hpp"

namespace {

using namespace snooze;
using namespace snooze::consolidation;
using hypervisor::ResourceVector;

Instance uniform_instance(std::size_t n, std::uint64_t seed) {
  workload::UniformVmGenerator gen(0.08, 0.42, seed);
  std::vector<ResourceVector> demands;
  for (std::size_t i = 0; i < n; ++i) demands.push_back(gen.next().requested);
  return Instance::homogeneous(std::move(demands), n);
}

DistributedAcoParams default_params(std::size_t shards = 4) {
  DistributedAcoParams params;
  params.shards = shards;
  params.colony.ants = 4;
  params.colony.cycles = 4;
  params.colony.seed = 7;
  return params;
}

TEST(DistributedAco, EmptyInstanceFeasible) {
  const auto inst = Instance::homogeneous({}, 0);
  const auto result = DistributedAcoConsolidation(default_params()).solve(inst);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.hosts_used, 0u);
}

TEST(DistributedAco, FeasibleOnRandomInstances) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const auto inst = uniform_instance(80, seed);
    const auto result = DistributedAcoConsolidation(default_params()).solve(inst);
    EXPECT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_GE(result.hosts_used, inst.lower_bound_hosts());
  }
}

TEST(DistributedAco, DeterministicForSeed) {
  const auto inst = uniform_instance(60, 5);
  const auto a = DistributedAcoConsolidation(default_params()).solve(inst);
  const auto b = DistributedAcoConsolidation(default_params()).solve(inst);
  EXPECT_EQ(a.placement, b.placement);
}

TEST(DistributedAco, SingleShardMatchesQualityOfCentralized) {
  const auto inst = uniform_instance(50, 9);
  auto params = default_params(1);
  params.repack_tail = false;
  const auto dist = DistributedAcoConsolidation(params).solve(inst);
  AcoParams colony = params.colony;
  colony.seed = params.colony.seed + 0x9E37u;  // shard 0's derived seed
  const auto central = AcoConsolidation(colony).solve(inst);
  EXPECT_EQ(dist.hosts_used, central.hosts_used);
}

TEST(DistributedAco, QualityCloseToCentralized) {
  // Sharding costs a little quality (fragmentation at shard boundaries) but
  // must stay within a modest factor of the centralized solve.
  double dist_total = 0.0;
  double central_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = uniform_instance(90, seed);
    auto params = default_params(3);
    const auto dist = DistributedAcoConsolidation(params).solve(inst);
    AcoParams colony;
    colony.ants = 4;
    colony.cycles = 4;
    colony.seed = seed;
    const auto central = AcoConsolidation(colony).solve(inst);
    ASSERT_TRUE(dist.feasible);
    ASSERT_TRUE(central.feasible);
    dist_total += static_cast<double>(dist.hosts_used);
    central_total += static_cast<double>(central.hosts_used);
  }
  EXPECT_LE(dist_total, central_total * 1.12);
}

TEST(DistributedAco, TailRepackingNeverHurts) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = uniform_instance(80, seed);
    auto without = default_params(4);
    without.repack_tail = false;
    auto with = default_params(4);
    with.repack_tail = true;
    const auto a = DistributedAcoConsolidation(without).solve(inst);
    const auto b = DistributedAcoConsolidation(with).solve(inst);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_LE(b.hosts_used, a.hosts_used) << "seed " << seed;
  }
}

TEST(DistributedAco, TailPassReportsRepackedVms) {
  const auto inst = uniform_instance(80, 3);
  const auto result = DistributedAcoConsolidation(default_params(4)).solve(inst);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.tail_vms, 0u);
  EXPECT_LT(result.tail_vms, inst.vm_count());
}

TEST(DistributedAco, CriticalPathShorterThanSumOfShards) {
  const auto inst = uniform_instance(120, 2);
  auto params = default_params(4);
  const auto dist = DistributedAcoConsolidation(params).solve(inst);
  // The critical path (max shard + tail) must be well under the serial wall
  // time of solving all shards back to back.
  EXPECT_LE(dist.critical_path_s, dist.runtime_s + 1e-9);
  EXPECT_GT(dist.critical_path_s, 0.0);
}

TEST(DistributedAco, MoreShardsThanHostsClamped) {
  const auto inst = uniform_instance(6, 1);
  auto params = default_params(50);  // more shards than hosts
  const auto result = DistributedAcoConsolidation(params).solve(inst);
  EXPECT_TRUE(result.feasible);
}

TEST(DistributedAco, BeatsFfdLikeCentralizedDoes) {
  std::size_t dist_total = 0;
  std::size_t ffd_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = uniform_instance(90, seed);
    const auto dist = DistributedAcoConsolidation(default_params(3)).solve(inst);
    const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);
    ASSERT_TRUE(dist.feasible);
    dist_total += dist.hosts_used;
    ffd_total += ffd.hosts_used();
  }
  EXPECT_LE(dist_total, ffd_total);
}

}  // namespace
