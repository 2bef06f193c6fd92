// Experiment E1 — ACO vs. FFD consolidation (paper §III.B, GRID'11).
//
// Paper claim: "compared to FFD, the ACO-based approach utilizes lower
// amounts of hosts and thus yields to superior average host utilization and
// energy gains. Thereby, on average 4.7% of hosts and 4.1% of energy were
// conserved (including energy spent into the computation)."
//
// We sweep instance sizes, run FFD (CPU presort — the single-dimension
// baseline the paper criticizes) and ACO over multiple seeds, and report
// hosts / utilization / energy (host energy over a one-hour window plus the
// energy of computing the placement on a management node).
//
// Artifact: --json=<path> writes every run's deterministic numbers (hosts,
// utilization and host energy of FFD and ACO per size and seed). It leaves
// out the computation-energy term, which follows the solver's speed.

#include <cstdio>

#include <fstream>
#include <memory>

#include "bench_common.hpp"
#include "consolidation/aco.hpp"
#include "consolidation/greedy.hpp"
#include "consolidation/metrics.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::consolidation;

namespace {

struct Summary {
  util::RunningStats ffd_hosts, aco_hosts;
  util::RunningStats ffd_util, aco_util;
  util::RunningStats ffd_energy, aco_energy;
  util::RunningStats hosts_saved_pct, energy_saved_pct;
};

struct Run {
  std::size_t vms = 0;
  std::uint64_t seed = 0;
  PlacementMetrics ffd, aco;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::size_t seeds = static_cast<std::size_t>(args.get_int("seeds", 10));
  const std::string json_path = args.get("json", "");
  const std::vector<std::size_t> sizes = {50, 100, 150, 200, 300};

  bench::print_header(
      "E1: ACO vs FFD consolidation (hosts / utilization / energy)",
      "ACO saves ~4.7% hosts and ~4.1% energy vs FFD, incl. computation energy");

  EnergyWindow window;  // one hour of operation, idle hosts suspended
  util::Table table({"VMs", "FFD hosts", "ACO hosts", "hosts saved", "FFD util",
                     "ACO util", "FFD energy kJ", "ACO energy kJ", "energy saved"});

  // Optional raw per-run data series (for external plotting).
  std::unique_ptr<util::CsvWriter> csv;
  if (args.has("csv")) {
    csv = std::make_unique<util::CsvWriter>(args.get("csv", "aco_vs_ffd.csv"));
    csv->write_row({"vms", "seed", "ffd_hosts", "aco_hosts", "ffd_joules",
                    "aco_joules", "aco_runtime_s"});
  }

  Summary overall;
  std::vector<Run> runs;
  for (std::size_t n : sizes) {
    Summary row;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto inst = bench::make_instance(n, seed);

      const auto ffd = first_fit_decreasing(inst, SortKey::kCpu);
      AcoParams params;
      params.ants = 8;
      params.cycles = 10;
      params.seed = seed;
      const auto aco = AcoConsolidation(params).solve(inst);
      if (!ffd.feasible(inst) || !aco.feasible) continue;

      // FFD is effectively free to compute; ACO pays its runtime in energy.
      const auto m_ffd = evaluate_placement(inst, ffd, window, 1e-4);
      const auto m_aco = evaluate_placement(inst, aco.placement, window, aco.runtime_s);
      runs.push_back({n, seed, m_ffd, m_aco});

      row.ffd_hosts.add(static_cast<double>(m_ffd.hosts_used));
      row.aco_hosts.add(static_cast<double>(m_aco.hosts_used));
      row.ffd_util.add(m_ffd.avg_cpu_utilization);
      row.aco_util.add(m_aco.avg_cpu_utilization);
      row.ffd_energy.add(m_ffd.total_joules());
      row.aco_energy.add(m_aco.total_joules());
      const double hosts_saved =
          (static_cast<double>(m_ffd.hosts_used) - static_cast<double>(m_aco.hosts_used)) /
          static_cast<double>(m_ffd.hosts_used);
      const double energy_saved =
          (m_ffd.total_joules() - m_aco.total_joules()) / m_ffd.total_joules();
      row.hosts_saved_pct.add(hosts_saved);
      row.energy_saved_pct.add(energy_saved);
      overall.hosts_saved_pct.add(hosts_saved);
      overall.energy_saved_pct.add(energy_saved);
      if (csv) {
        csv->write_row({std::to_string(n), std::to_string(seed),
                        std::to_string(m_ffd.hosts_used),
                        std::to_string(m_aco.hosts_used),
                        util::Table::num(m_ffd.total_joules(), 1),
                        util::Table::num(m_aco.total_joules(), 1),
                        util::Table::num(aco.runtime_s, 6)});
      }
    }
    table.add_row({std::to_string(n), util::Table::num(row.ffd_hosts.mean(), 1),
                   util::Table::num(row.aco_hosts.mean(), 1),
                   util::Table::pct(row.hosts_saved_pct.mean()),
                   util::Table::pct(row.ffd_util.mean()),
                   util::Table::pct(row.aco_util.mean()),
                   util::Table::num(row.ffd_energy.mean() / 1000.0, 1),
                   util::Table::num(row.aco_energy.mean() / 1000.0, 1),
                   util::Table::pct(row.energy_saved_pct.mean())});
  }
  table.print();

  std::printf("\noverall: hosts saved %.1f%% (paper: 4.7%%), energy saved %.1f%% "
              "(paper: 4.1%%), %zu runs\n",
              overall.hosts_saved_pct.mean() * 100.0,
              overall.energy_saved_pct.mean() * 100.0, overall.energy_saved_pct.count());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"aco_vs_ffd\",\n  \"seeds\": " << seeds
        << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const Run& r = runs[i];
      out << "    {\"vms\": " << r.vms << ", \"seed\": " << r.seed
          << ", \"ffd_hosts\": " << r.ffd.hosts_used << ", \"aco_hosts\": " << r.aco.hosts_used
          << ", \"ffd_util\": " << r.ffd.avg_cpu_utilization
          << ", \"aco_util\": " << r.aco.avg_cpu_utilization
          << ", \"ffd_host_kj\": " << r.ffd.energy_joules / 1000.0
          << ", \"aco_host_kj\": " << r.aco.energy_joules / 1000.0 << "}"
          << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
