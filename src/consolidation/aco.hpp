// Ant Colony Optimization for VM consolidation (paper §III.A).
//
// Multiple artificial ants construct VM→host assignments probabilistically
// within multiple cycles. Ants communicate indirectly by depositing
// pheromone on (VM, host) pairs in a pheromone matrix. Within a cycle each
// ant fills hosts one at a time: among the still-unassigned VMs
// that fit into the current host it picks the next VM with probability
//
//     p(v, l) = tau[v][l]^alpha * eta(v, l)^beta / sum over feasible v'
//
// where tau is the pheromone concentration and eta a heuristic that favors
// VMs leaving the least residual capacity (better overall host utilization).
// At the end of each cycle the best-so-far solution (fewest hosts) is
// reinforced in the matrix and all pheromone evaporates by factor rho — the
// stochastic exploration / exploitation balance of classic ACO.
//
// The ants of one cycle are independent: they walk one after another on the
// same pheromone matrix, and each ant gets its own RNG stream, forked from
// the seed's master stream in ant order, so a seed fixes the result.
#pragma once

#include <cstdint>
#include <vector>

#include "consolidation/instance.hpp"

namespace snooze::consolidation {

struct AcoParams {
  std::size_t ants = 8;      ///< solutions constructed per cycle
  std::size_t cycles = 10;   ///< pheromone update rounds
  double alpha = 1.0;        ///< pheromone exponent
  double beta = 2.0;         ///< heuristic exponent
  double rho = 0.3;          ///< evaporation rate in (0,1]
  double tau0 = 1.0;         ///< initial pheromone level
  double q = 1.0;            ///< deposit scale: delta = q / hosts(best)
  std::uint64_t seed = 1;
};

struct AcoResult {
  Placement placement;
  std::size_t hosts_used = 0;
  bool feasible = false;
  double runtime_s = 0.0;  ///< wall-clock construction time (feeds the
                           ///< energy-of-computation accounting)
  std::vector<std::size_t> best_per_cycle;  ///< global-best after each cycle
};

class AcoConsolidation {
 public:
  explicit AcoConsolidation(AcoParams params = {});

  [[nodiscard]] const AcoParams& params() const { return params_; }

  /// Pack all VMs of `instance`. Each walk fills the hosts in index order; a
  /// walk that runs out of hosts leaves VMs unassigned and is skipped. When
  /// no walk of any cycle completes, `feasible` is false, `hosts_used` is 0
  /// and every VM is unassigned, even if the instance is packable.
  [[nodiscard]] AcoResult solve(const Instance& instance) const;

 private:
  AcoParams params_;
};

/// Heuristic desirability of adding demand `d` to a host with residual
/// capacity `residual` (before adding d). Higher = better fit.
double aco_heuristic(const ResourceVector& residual, const ResourceVector& d);

}  // namespace snooze::consolidation
