// The Snooze command-line interface (paper §II.A) over a simulated
// deployment: manage VMs, inject failures, advance virtual time, and
// visualize/export the hierarchy organization.
//
// Interactive:  ./snooze_cli --lcs=12 --gms=3
// Scripted:     echo "submit 5\nrun 60\nhierarchy\nstats" | ./snooze_cli
// Chaos:        ./snooze_cli --gms=3 --lcs=9 --chaos-seed=7 [--chaos-duration=120]
//               (non-interactive; exit code 0 iff all invariants held)

#include <cstdio>
#include <iostream>
#include <string>

#include "chaos/runner.hpp"
#include "cli/commands.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const snooze::util::Args args(argc, argv);

  if (args.has("chaos-seed")) {
    snooze::chaos::ChaosRunConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 1));
    cfg.topology.group_managers = static_cast<std::size_t>(args.get_int("gms", 3));
    cfg.topology.local_controllers = static_cast<std::size_t>(args.get_int("lcs", 9));
    if (args.has("chaos-duration")) {
      try {
        cfg.spec.duration = snooze::chaos::parse_duration(args.get("chaos-duration", ""));
      } catch (const std::runtime_error& e) {
        std::fprintf(stderr, "--chaos-duration: %s\n", e.what());
        return 2;
      }
    }
    const auto result = snooze::chaos::run_chaos(cfg);
    std::fputs(result.report.c_str(), stdout);
    std::printf("trace hash: %016llx\n",
                static_cast<unsigned long long>(result.trace_hash));
    return result.ok() ? 0 : 1;
  }

  auto session = snooze::cli::CliSession::boot(
      static_cast<std::size_t>(args.get_int("gms", 3)),
      static_cast<std::size_t>(args.get_int("lcs", 12)),
      static_cast<std::uint64_t>(args.get_int("seed", 42)),
      args.get_bool("energy", false));

  std::printf("snooze CLI — hierarchy up at t=%.1fs. Type 'help'.\n",
              session->system().engine().now());
  std::string line;
  while (true) {
    std::printf("snooze> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const auto result = session->execute(line);
    std::fputs(result.output.c_str(), stdout);
    if (result.quit) break;
  }
  return 0;
}
