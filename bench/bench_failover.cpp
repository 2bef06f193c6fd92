// Experiment E13 — failover latency and epoch-fenced safety (paper §II.F).
//
// Paper claim: the hierarchy survives GL failure by electing a successor
// which "retrieves the GM resource information" before resuming; this repo
// adds epoch fencing so a deposed-but-alive GL can never act after a
// successor exists.
//
// Per seed we run a small deployment, take the GL down mid-workload (crash,
// then separately a network isolation which leaves the old GL running), and
// measure on the virtual clock:
//   - election:   crash/isolate -> successor's gm.elected_gl
//   - ready:      crash/isolate -> successor's gl.reconciled (accepts work)
//   - 1st accept: crash/isolate -> first placement of a VM submitted after
//                 the failure (client retry latency across the failover)
// plus the fencing counters (fence.rejected, gl.stepdowns) from the metrics
// registry. The "ready" column is checked against the heartbeat-derived
// bound: coordination session timeout + one GL heartbeat period of
// detection slack + the reconciliation window.
//
// Artifact: --json=<path> writes the bound and every run's deterministic
// numbers (the table's columns plus whether the hierarchy reconverged).

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/snooze.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

using namespace snooze;
using namespace snooze::core;

namespace {

// Mirrors coord::LeaderElection's session timeout (the election owns the
// constant; the bench only needs it for the latency bound).
constexpr double kSessionTimeout = 6.0;

struct FailoverSample {
  double election = -1.0;
  double ready = -1.0;
  double first_accept = -1.0;
  std::uint64_t fenced = 0;
  std::uint64_t stepdowns = 0;
  bool converged = false;
};

FailoverSample run_one(std::uint64_t seed, bool isolate) {
  SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 3;
  spec.local_controllers = 12;
  spec.seed = seed;
  SnoozeSystem system(spec);
  system.start();
  FailoverSample sample;
  if (!system.run_until_stable(300.0)) return sample;

  std::vector<VmDescriptor> vms;
  for (std::size_t i = 0; i < 24; ++i) {
    vms.push_back(system.make_vm({0.1, 0.1, 0.1}));
  }
  system.client().submit_all(vms, 0.25);
  system.engine().run_until(system.engine().now() + 30.0);

  const double t0 = system.engine().now();
  if (isolate) {
    for (auto& gm : system.group_managers()) {
      if (gm->alive() && gm->is_leader()) {
        const auto addrs = gm->network_addresses();
        system.network().set_partitions(
            {std::set<net::Address>(addrs.begin(), addrs.end())});
        break;
      }
    }
  } else {
    system.fail_gl();
  }
  // VMs submitted *after* the failure: their accept latency is the
  // client-visible failover cost (discovery + retries against the successor).
  std::vector<VmDescriptor> probes;
  for (std::size_t i = 0; i < 4; ++i) {
    probes.push_back(system.make_vm({0.1, 0.1, 0.1}));
  }
  system.client().submit_all(probes, 0.25);
  system.engine().run_until(t0 + 30.0);
  if (isolate) system.network().set_partitions({});
  // Long enough for the probes' first attempt (aimed at the dead GL) to run
  // out its RPC deadline and the retry to land on the successor.
  system.engine().run_until(t0 + 60.0);
  sample.converged = system.run_until_stable(system.engine().now() + 120.0);

  const double elected = system.trace().first_time("gm.elected_gl", t0);
  const double ready = system.trace().first_time("gl.reconciled", t0);
  const double placed = system.trace().first_time("gm.vm_placed", t0);
  sample.election = elected >= 0.0 ? elected - t0 : -1.0;
  sample.ready = ready >= 0.0 ? ready - t0 : -1.0;
  sample.first_accept = placed >= 0.0 ? placed - t0 : -1.0;
  auto& metrics = system.telemetry().metrics();
  sample.fenced = metrics.counter("fence.rejected").value();
  sample.stepdowns = metrics.counter("gl.stepdowns").value();
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seeds = static_cast<std::uint64_t>(args.get_int("seeds", 10));
  const std::string json_path = args.get("json", "");

  bench::print_header(
      "E13: GL failover latency and epoch-fenced safety",
      "GL failure is transparent; a deposed leader is fenced, never obeyed");

  const double bound = kSessionTimeout + kHeartbeatPeriod + kGlReconcileWindow;
  std::printf("ready bound = session timeout %.1fs + heartbeat %.1fs + "
              "reconcile window %.1fs = %.1fs\n",
              kSessionTimeout, kHeartbeatPeriod, kGlReconcileWindow, bound);

  util::Table table({"mode", "seed", "election s", "ready s", "1st accept s",
                     "fenced", "stepdowns", "ok"});
  bool all_ok = true;
  std::ostringstream json_runs;  // one JSON row per run
  for (const bool isolate : {false, true}) {
    double sum_ready = 0.0;
    std::uint64_t n_ready = 0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const FailoverSample s = run_one(seed, isolate);
      const bool ok = s.converged && s.election >= 0.0 && s.ready >= 0.0 &&
                      s.ready <= bound &&
                      // An isolated (not crashed) old GL must have been
                      // demoted — fencing or a newer heartbeat forced it out.
                      (!isolate || s.stepdowns >= 1);
      all_ok = all_ok && ok;
      if (s.ready >= 0.0) {
        sum_ready += s.ready;
        ++n_ready;
      }
      table.add_row({isolate ? "isolate" : "crash", std::to_string(seed),
                     util::Table::num(s.election, 2), util::Table::num(s.ready, 2),
                     util::Table::num(s.first_accept, 2), std::to_string(s.fenced),
                     std::to_string(s.stepdowns), ok ? "yes" : "NO"});
      if (json_runs.tellp() > 0) json_runs << ",\n";
      json_runs << "    {\"mode\": \"" << (isolate ? "isolate" : "crash")
                << "\", \"seed\": " << seed
                << ", \"election_s\": " << bench::json_number(s.election)
                << ", \"ready_s\": " << bench::json_number(s.ready)
                << ", \"first_accept_s\": " << bench::json_number(s.first_accept)
                << ", \"fenced\": " << s.fenced << ", \"stepdowns\": " << s.stepdowns
                << ", \"converged\": " << (s.converged ? "true" : "false")
                << ", \"ok\": " << (ok ? "true" : "false") << "}";
    }
    std::printf("%s: mean ready %.2fs over %llu seeds (bound %.1fs)\n",
                isolate ? "isolate" : "crash",
                n_ready ? sum_ready / static_cast<double>(n_ready) : -1.0,
                static_cast<unsigned long long>(n_ready), bound);
  }
  table.print();

  std::printf("\nshape check: every seed elects and reconciles a successor\n"
              "within the heartbeat-derived bound; isolation rows additionally\n"
              "show the deposed GL stepping down (stepdowns >= 1) instead of\n"
              "split-braining, with any stale command fenced.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    out << "{\n  \"benchmark\": \"failover\",\n  \"seeds\": " << seeds
        << ",\n  \"ready_bound_s\": " << bench::json_number(bound)
        << ",\n  \"runs\": [\n" << json_runs.str() << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}
