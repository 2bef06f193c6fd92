#include "consolidation/distributed_aco.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace snooze::consolidation {

namespace {

struct Shard {
  std::vector<std::size_t> host_ids;  // global host indices
  std::vector<std::size_t> vm_ids;    // global VM indices
  AcoResult result;
};

}  // namespace

DistributedAcoConsolidation::DistributedAcoConsolidation(DistributedAcoParams params)
    : params_(params) {}

DistributedAcoResult DistributedAcoConsolidation::solve(const Instance& instance) const {
  const auto wall_start = std::chrono::steady_clock::now();
  DistributedAcoResult out;
  const std::size_t n = instance.vm_count();
  out.placement = Placement(n);
  if (n == 0) {
    out.feasible = true;
    return out;
  }
  const std::size_t k = std::max<std::size_t>(1, std::min(params_.shards,
                                                          instance.host_count()));

  // --- partition hosts round-robin and deal VMs largest-first -----------------
  std::vector<Shard> shards(k);
  for (std::size_t h = 0; h < instance.host_count(); ++h) {
    shards[h % k].host_ids.push_back(h);
  }
  std::vector<std::size_t> vm_order(n);
  std::iota(vm_order.begin(), vm_order.end(), 0);
  std::stable_sort(vm_order.begin(), vm_order.end(), [&](std::size_t a, std::size_t b) {
    return instance.vm_demands[a].l2_norm() > instance.vm_demands[b].l2_norm();
  });
  std::vector<double> shard_demand(k, 0.0);
  for (std::size_t vm : vm_order) {
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(shard_demand.begin(), shard_demand.end()) -
        shard_demand.begin());
    shards[target].vm_ids.push_back(vm);
    shard_demand[target] += instance.vm_demands[vm].l1_norm();
  }

  // --- solve every shard with an independent colony ----------------------------
  for (std::size_t s = 0; s < k; ++s) {
    Shard& shard = shards[s];
    Instance sub;
    for (std::size_t vm : shard.vm_ids) sub.vm_demands.push_back(instance.vm_demands[vm]);
    for (std::size_t h : shard.host_ids) {
      sub.host_capacities.push_back(instance.host_capacities[h]);
    }
    AcoParams colony = params_.colony;
    colony.seed = params_.colony.seed + 0x9E37u * (s + 1);
    shard.result = AcoConsolidation(colony).solve(sub);
  }

  double max_shard_time = 0.0;
  bool all_feasible = true;
  for (const Shard& shard : shards) {
    max_shard_time = std::max(max_shard_time, shard.result.runtime_s);
    if (!shard.vm_ids.empty() && !shard.result.feasible) all_feasible = false;
  }
  if (!all_feasible) {
    out.runtime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                  wall_start)
                        .count();
    out.critical_path_s = max_shard_time;
    return out;  // some shard could not pack its VMs into its hosts
  }
  for (const Shard& shard : shards) {
    for (std::size_t i = 0; i < shard.vm_ids.size(); ++i) {
      const HostIndex local = shard.result.placement.host_of(i);
      out.placement.assign(shard.vm_ids[i],
                           static_cast<HostIndex>(shard.host_ids[static_cast<std::size_t>(local)]));
    }
  }

  // --- cooperative tail pass ------------------------------------------------------
  double tail_time = 0.0;
  if (params_.repack_tail && k > 1) {
    auto loads = out.placement.loads(instance);
    // Collect each shard's least-filled used hosts and free their VMs.
    std::vector<bool> vm_in_tail(n, false);
    for (const Shard& shard : shards) {
      std::vector<std::size_t> used;
      for (std::size_t h : shard.host_ids) {
        if (!(loads[h] == ResourceVector{})) used.push_back(h);
      }
      std::stable_sort(used.begin(), used.end(), [&](std::size_t a, std::size_t b) {
        return loads[a].l1_norm() < loads[b].l1_norm();
      });
      const auto donate = static_cast<std::size_t>(
          std::ceil(params_.tail_fraction * static_cast<double>(used.size())));
      for (std::size_t i = 0; i < donate && i < used.size(); ++i) {
        for (std::size_t vm = 0; vm < n; ++vm) {
          if (out.placement.host_of(vm) == static_cast<HostIndex>(used[i])) {
            vm_in_tail[vm] = true;
          }
        }
      }
    }
    std::vector<std::size_t> tail_vms;
    for (std::size_t vm = 0; vm < n; ++vm) {
      if (vm_in_tail[vm]) tail_vms.push_back(vm);
    }
    out.tail_vms = tail_vms.size();

    if (!tail_vms.empty()) {
      // Residual capacities after removing the tail VMs; hosts ordered by
      // descending residual load so the joint colony fills partly-used hosts
      // before opening freed ones.
      auto residual_loads = loads;
      for (std::size_t vm : tail_vms) {
        residual_loads[static_cast<std::size_t>(out.placement.host_of(vm))] -=
            instance.vm_demands[vm];
      }
      std::vector<std::size_t> host_order(instance.host_count());
      std::iota(host_order.begin(), host_order.end(), 0);
      std::stable_sort(host_order.begin(), host_order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return residual_loads[a].l1_norm() > residual_loads[b].l1_norm();
                       });
      Instance tail;
      for (std::size_t vm : tail_vms) tail.vm_demands.push_back(instance.vm_demands[vm]);
      for (std::size_t h : host_order) {
        tail.host_capacities.push_back(instance.host_capacities[h] - residual_loads[h]);
      }
      AcoParams colony = params_.colony;
      colony.seed = params_.colony.seed ^ 0x7A11u;
      const auto tail_result = AcoConsolidation(colony).solve(tail);
      tail_time = tail_result.runtime_s;
      if (tail_result.feasible) {
        for (std::size_t i = 0; i < tail_vms.size(); ++i) {
          const auto local = static_cast<std::size_t>(tail_result.placement.host_of(i));
          out.placement.assign(tail_vms[i], static_cast<HostIndex>(host_order[local]));
        }
      }
      // If the tail pass failed (cannot happen when the pre-tail placement
      // was feasible, but stay safe) the original assignment is kept.
    }
  }

  out.hosts_used = out.placement.hosts_used();
  out.feasible = out.placement.feasible(instance);
  out.critical_path_s = max_shard_time + tail_time;
  out.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

}  // namespace snooze::consolidation
