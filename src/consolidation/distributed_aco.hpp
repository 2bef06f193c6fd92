// Distributed ACO consolidation — the paper's stated future work (§V: "a
// distributed version of the algorithm will be developed").
//
// Mirrors how consolidation distributes across Snooze Group Managers: the
// fleet is split into shards (one per GM), each shard packs its own VMs onto
// its own hosts with an independent ant colony, and shards never exchange
// pheromone, exactly like GMs that only see their own LCs. The shards are
// solved one after another; `critical_path_s` (slowest shard plus the tail)
// models GMs that solve them concurrently.
// An optional tail-repacking pass then emulates light inter-GM cooperation:
// each shard donates its least-filled hosts' VMs to one joint ACO round, so
// the fragmentation that sharding introduces at shard boundaries is partly
// recovered.
//
// The trade-off this reproduces: sharding cuts the (super-linear) solve time
// by ~k and removes the centralized bottleneck, at a small cost in packing
// quality; tail repacking buys most of that quality back for one extra
// small solve. bench_distributed_aco quantifies both.
#pragma once

#include <cstdint>

#include "consolidation/aco.hpp"

namespace snooze::consolidation {

struct DistributedAcoParams {
  std::size_t shards = 4;       ///< number of independent colonies (GMs)
  AcoParams colony;             ///< parameters of each per-shard colony
  bool repack_tail = true;      ///< run the cooperative tail pass
  double tail_fraction = 0.34;  ///< share of each shard's least-filled hosts
                                ///< whose VMs join the tail pass
};

struct DistributedAcoResult {
  Placement placement;
  std::size_t hosts_used = 0;
  bool feasible = false;
  double runtime_s = 0.0;           ///< wall time of the whole run
  double critical_path_s = 0.0;     ///< max shard time + tail time (what a
                                    ///< real GM deployment would observe)
  std::size_t tail_vms = 0;         ///< VMs re-packed by the tail pass
};

class DistributedAcoConsolidation {
 public:
  explicit DistributedAcoConsolidation(DistributedAcoParams params = {});

  [[nodiscard]] const DistributedAcoParams& params() const { return params_; }

  /// Pack `instance`; hosts are partitioned round-robin over the shards and
  /// VMs are assigned to shards by load-balanced dealing (largest first).
  [[nodiscard]] DistributedAcoResult solve(const Instance& instance) const;

 private:
  DistributedAcoParams params_;
};

}  // namespace snooze::consolidation
