// Experiment E2 — ACO vs. the optimal solution (paper §III.B).
//
// Paper claim: "the proposed algorithm achieves nearly optimal solutions
// (i.e. 1.1% deviation)". The paper computed the optimum with CPLEX; we use
// the exact branch-and-bound solver on instance sizes where optimality is
// provable in seconds.
//
// Artifact: --json=<path> writes every run's host counts and deviations.

#include <cstdio>

#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "consolidation/aco.hpp"
#include "consolidation/exact.hpp"
#include "consolidation/greedy.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::consolidation;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::size_t seeds = static_cast<std::size_t>(args.get_int("seeds", 10));
  const std::string json_path = args.get("json", "");
  const std::vector<std::size_t> sizes = {10, 12, 14, 16, 18};

  bench::print_header("E2: ACO deviation from the optimal solution",
                      "ACO achieves nearly optimal solutions (~1.1% deviation)");

  util::Table table({"VMs", "optimal hosts", "ACO hosts", "FFD hosts",
                     "ACO deviation", "FFD deviation", "proven optimal"});

  util::RunningStats overall_aco_dev;
  util::RunningStats overall_ffd_dev;
  std::ostringstream json_runs;  // one JSON row per run
  for (std::size_t n : sizes) {
    util::RunningStats opt_hosts, aco_hosts, ffd_hosts, aco_dev, ffd_dev;
    std::size_t proven = 0;
    std::size_t runs = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto inst = bench::make_instance(n, seed, 0.15, 0.6);
      ExactParams exact_params;
      exact_params.time_limit_s = 10.0;
      const auto optimal = solve_exact(inst, exact_params);
      if (!optimal.feasible) continue;
      if (optimal.optimal) ++proven;
      ++runs;

      AcoParams params;
      params.ants = 8;
      params.cycles = 10;
      params.seed = seed;
      const auto aco = AcoConsolidation(params).solve(inst);
      const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);

      opt_hosts.add(static_cast<double>(optimal.hosts_used));
      aco_hosts.add(static_cast<double>(aco.hosts_used));
      ffd_hosts.add(static_cast<double>(ffd.hosts_used()));
      const double adev =
          (static_cast<double>(aco.hosts_used) - static_cast<double>(optimal.hosts_used)) /
          static_cast<double>(optimal.hosts_used);
      const double fdev = (static_cast<double>(ffd.hosts_used()) -
                           static_cast<double>(optimal.hosts_used)) /
                          static_cast<double>(optimal.hosts_used);
      aco_dev.add(adev);
      ffd_dev.add(fdev);
      overall_aco_dev.add(adev);
      overall_ffd_dev.add(fdev);
      if (overall_aco_dev.count() > 1) json_runs << ",\n";
      json_runs << "    {\"vms\": " << n << ", \"seed\": " << seed
                << ", \"optimal_hosts\": " << optimal.hosts_used
                << ", \"aco_hosts\": " << aco.hosts_used << ", \"ffd_hosts\": " << ffd.hosts_used()
                << ", \"aco_deviation\": " << adev << ", \"ffd_deviation\": " << fdev << "}";
    }
    table.add_row({std::to_string(n), util::Table::num(opt_hosts.mean(), 2),
                   util::Table::num(aco_hosts.mean(), 2),
                   util::Table::num(ffd_hosts.mean(), 2),
                   util::Table::pct(aco_dev.mean()), util::Table::pct(ffd_dev.mean()),
                   std::to_string(proven) + "/" + std::to_string(runs)});
  }
  table.print();

  std::printf("\noverall ACO deviation from optimal: %.1f%% (paper: 1.1%%); "
              "FFD deviation: %.1f%%\n",
              overall_aco_dev.mean() * 100.0, overall_ffd_dev.mean() * 100.0);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"aco_optimality\",\n  \"seeds\": " << seeds
        << ",\n  \"runs\": [\n"
        << json_runs.str() << "\n  ],\n  \"aco_deviation_mean\": " << overall_aco_dev.mean()
        << ",\n  \"ffd_deviation_mean\": " << overall_ffd_dev.mean() << "\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
