#include "cli/commands.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "chaos/runner.hpp"
#include "cli/dot_export.hpp"
#include "telemetry/export.hpp"

namespace snooze::cli {

namespace {

// Numeric arguments follow the chaos script parser's rules: the whole token
// must be a finite number, and a count or index a whole one in [0, 2^31).
// Each helper throws std::runtime_error naming the argument, which fails
// the command (execute() catches it).
std::size_t parse_count(const std::string& tok, const char* what) {
  return static_cast<std::size_t>(chaos::parse_int(tok, 0, what));
}

double parse_positive(const std::string& tok, const char* what) {
  const double value = chaos::parse_number(tok, 0, what);
  if (value <= 0.0) {
    throw std::runtime_error(std::string(what) + " must be > 0, got '" + tok + "'");
  }
  return value;
}

}  // namespace

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) out.push_back(token);
  return out;
}

CliSession::CliSession(std::unique_ptr<core::SnoozeSystem> system)
    : system_(std::move(system)),
      monitor_(std::make_unique<obs::HealthMonitor>(*system_)) {
  monitor_->start();
  // Keep submit-latency exemplars so `metrics show` and incident reports can
  // link a tail bucket to its span tree. Passive: no events, no RNG.
  system_->telemetry()
      .metrics()
      .histogram("client.submit_latency")
      .enable_exemplars();
}

std::unique_ptr<CliSession> CliSession::boot(std::size_t gms, std::size_t lcs,
                                             std::uint64_t seed, bool energy_savings) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = gms;
  spec.local_controllers = lcs;
  spec.seed = seed;
  spec.config.energy_savings = energy_savings;
  auto system = std::make_unique<core::SnoozeSystem>(spec);
  system->start();
  system->run_until_stable(300.0);
  return std::make_unique<CliSession>(std::move(system));
}

std::string CliSession::help() {
  return "commands:\n"
         "  submit <n> [cpu] [mem] [net] [lifetime_s]  submit n VMs\n"
         "  run <seconds>                              advance virtual time\n"
         "  hierarchy                                  print the hierarchy\n"
         "  export-dot [file]                          Graphviz of the hierarchy\n"
         "  stats                                      counters and energy\n"
         "  fail gl | fail gm <i> | fail lc <i>        inject a crash\n"
         "  failover show                              epochs, fences and reconciliation\n"
         "  chaos seed <n> [duration]                  seeded chaos run + invariants\n"
         "  chaos script <file>                        run a fault-schedule script\n"
         "  chaos show <n> [duration]                  print the schedule for a seed\n"
         "  metrics show                               telemetry counters/gauges/histograms\n"
         "  metrics csv <file>                         export all metrics as CSV\n"
         "  trace export <file>                        Chrome trace_event JSON (Perfetto)\n"
         "  trace csv <file>                           span time series as CSV\n"
         "  health                                     time-series dashboard\n"
         "  health csv <file>                          export the time series as CSV\n"
         "  health path                                critical-path phase breakdown\n"
         "  incident list                              episodes + root-cause hypotheses\n"
         "  incident show <id>                         evidence chain for one episode\n"
         "  incident csv <file>                        export the incident report\n"
         "  slo                                        SLIs vs SLO thresholds (pass/fail)\n"
         "  top [n]                                    busiest LC nodes\n"
         "  upgrade start [version] [wave_size]        SLO-gated rolling upgrade\n"
         "  upgrade status                             waves, versions, pauses\n"
         "  autoscale on | off | status                GL-driven LC power scaling\n"
         "  help                                       this screen\n"
         "  quit                                       leave\n";
}

CommandResult CliSession::execute(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return {};
  const std::string& cmd = tokens.front();
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  try {
    if (cmd == "help") return {true, false, help()};
    if (cmd == "quit" || cmd == "exit") return {true, true, ""};
    if (cmd == "submit") return cmd_submit(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "hierarchy") return cmd_hierarchy();
    if (cmd == "export-dot") return cmd_export_dot(args);
    if (cmd == "stats") return cmd_stats();
    if (cmd == "fail") return cmd_fail(args);
    if (cmd == "failover") return cmd_failover(args);
    if (cmd == "chaos") return cmd_chaos(args);
    if (cmd == "metrics") return cmd_metrics(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "health") return cmd_health(args);
    if (cmd == "incident") return cmd_incident(args);
    if (cmd == "slo") return cmd_slo();
    if (cmd == "top") return cmd_top(args);
    if (cmd == "upgrade") return cmd_upgrade(args);
    if (cmd == "autoscale") return cmd_autoscale(args);
  } catch (const std::runtime_error& e) {
    return {false, false, cmd + ": " + e.what() + "\n"};  // a malformed argument
  }
  return {false, false, "unknown command '" + cmd + "' (try 'help')\n"};
}

CommandResult CliSession::cmd_submit(const std::vector<std::string>& args) {
  if (args.empty()) return {false, false, "usage: submit <n> [cpu] [mem] [net] [lifetime]\n"};
  const std::size_t n = parse_count(args[0], "VM count");
  const double cpu = args.size() > 1 ? parse_positive(args[1], "cpu") : 0.125;
  const double mem = args.size() > 2 ? parse_positive(args[2], "mem") : cpu;
  const double net = args.size() > 3 ? parse_positive(args[3], "net") : cpu;
  const double lifetime =
      args.size() > 4 ? chaos::parse_number(args[4], 0, "lifetime") : 0.0;
  if (n == 0 || n > 100000) return {false, false, "submit: bad VM count\n"};
  if (lifetime < 0.0) return {false, false, "submit: lifetime must be >= 0\n"};
  std::vector<core::VmDescriptor> vms;
  for (std::size_t i = 0; i < n; ++i) {
    core::TraceSpec trace;
    trace.kind = core::TraceSpec::Kind::kConstant;
    trace.a = 0.7;
    vms.push_back(system_->make_vm({cpu, mem, net}, lifetime, trace));
  }
  const auto before_ok = system_->client().succeeded();
  const auto before_fail = system_->client().failed();
  system_->client().submit_all(std::move(vms), 0.1);
  system_->engine().run_until(system_->engine().now() + 0.1 * static_cast<double>(n) +
                              60.0);
  std::ostringstream out;
  out << "submitted " << n << ": " << (system_->client().succeeded() - before_ok)
      << " placed, " << (system_->client().failed() - before_fail) << " failed; "
      << system_->running_vm_count() << " VMs running\n";
  return {true, false, out.str()};
}

CommandResult CliSession::cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) return {false, false, "usage: run <seconds>\n"};
  const double seconds = chaos::parse_duration(args[0]);
  system_->engine().run_until(system_->engine().now() + seconds);
  std::ostringstream out;
  out << "t=" << system_->engine().now() << "s\n";
  return {true, false, out.str()};
}

CommandResult CliSession::cmd_hierarchy() {
  return {true, false, system_->hierarchy_dump()};
}

CommandResult CliSession::cmd_export_dot(const std::vector<std::string>& args) {
  const std::string dot = hierarchy_dot(*system_);
  if (args.empty()) return {true, false, dot};
  std::ofstream out(args[0]);
  if (!out) return {false, false, "export-dot: cannot open " + args[0] + "\n"};
  out << dot;
  return {true, false, "wrote " + args[0] + "\n"};
}

CommandResult CliSession::cmd_stats() {
  std::ostringstream out;
  out << "t=" << system_->engine().now() << "s\n";
  out << "VMs running: " << system_->running_vm_count() << "\n";
  out << "LCs assigned/suspended: " << system_->assigned_lc_count() << "/"
      << system_->suspended_lc_count() << "\n";
  out << "client: " << system_->client().succeeded() << " ok, "
      << system_->client().failed() << " failed\n";
  out << "energy: " << system_->total_energy() / 1000.0 << " kJ\n";
  out << "useful work: " << system_->total_work() << " VM-s\n";
  const auto net_stats = system_->network().stats();
  out << "control messages: " << net_stats.messages_sent << " sent, "
      << net_stats.messages_dropped << " dropped\n";
  const auto& registry = system_->telemetry().metrics();
  out << "migrations/suspends/wakeups: " << registry.value("gm.migrations_completed")
      << "/" << registry.value("gm.suspends") << "/" << registry.value("gm.wakeups")
      << "\n";
  return {true, false, out.str()};
}

CommandResult CliSession::cmd_fail(const std::vector<std::string>& args) {
  if (args.empty()) return {false, false, "usage: fail gl | fail gm <i> | fail lc <i>\n"};
  if (args[0] == "gl") {
    const int index = system_->fail_gl();
    if (index < 0) return {false, false, "fail gl: no leader elected\n"};
    return {true, false, "crashed the GL (gm index " + std::to_string(index) + ")\n"};
  }
  if (args.size() < 2) return {false, false, "usage: fail gm <i> | fail lc <i>\n"};
  const std::size_t index = parse_count(args[1], "index");
  if (args[0] == "gm") {
    if (index >= system_->group_managers().size()) {
      return {false, false, "fail gm: index out of range\n"};
    }
    system_->fail_gm(index);
    return {true, false, "crashed gm-" + std::to_string(index) + "\n"};
  }
  if (args[0] == "lc") {
    if (index >= system_->local_controllers().size()) {
      return {false, false, "fail lc: index out of range\n"};
    }
    system_->fail_lc(index);
    return {true, false, "crashed lc-" + std::to_string(index) + "\n"};
  }
  return {false, false, "fail: unknown target '" + args[0] + "'\n"};
}

CommandResult CliSession::cmd_failover(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "show") {
    return {false, false, "usage: failover show\n"};
  }
  std::ostringstream out;
  out << "group managers (authority epochs):\n";
  for (const auto& gm : system_->group_managers()) {
    out << "  " << gm->name() << ": "
        << (gm->alive() ? (gm->is_leader() ? "GL" : "gm") : "down")
        << " epoch=" << gm->epoch();
    if (gm->reconciling()) out << " [reconciling]";
    out << "\n";
  }
  out << "local controllers (GM lease epochs):\n";
  for (const auto& lc : system_->local_controllers()) {
    out << "  " << lc->name() << ": lease=" << lc->lease_epoch()
        << " gl_seen=" << lc->gl_epoch_seen()
        << " fenced=" << lc->fence_rejected()
        << " stale_accepts=" << lc->stale_accepts() << "\n";
  }
  const auto& registry = system_->telemetry().metrics();
  out << "failover history: " << registry.value("gl.stepdowns") << " stepdowns, "
      << registry.value("gl.reconciles") << " reconciliations\n";
  if (const auto* epoch = registry.find_gauge("failover.epoch")) {
    out << "current GL epoch (failover.epoch): "
        << static_cast<std::uint64_t>(epoch->current()) << "\n";
  }
  out << "fence.rejected: " << registry.value("fence.rejected") << "\n";
  if (const auto* recon = registry.find_histogram("reconcile.duration")) {
    out << "reconcile.duration: count=" << recon->count() << " mean="
        << recon->mean() << "s max=" << recon->max() << "s\n";
  }
  return {true, false, out.str()};
}

CommandResult CliSession::cmd_chaos(const std::vector<std::string>& args) {
  const std::string usage =
      "usage: chaos seed <n> [duration] | chaos script <file> | chaos show <n> [duration]\n";
  if (args.size() < 2) return {false, false, usage};

  // Chaos runs execute on a fresh cluster shaped like this session's (the
  // interactive deployment stays untouched); the seed fully determines the
  // run, so a failure reported here reproduces anywhere.
  chaos::ChaosRunConfig cfg;
  cfg.topology.entry_points = system_->spec().entry_points;
  cfg.topology.group_managers = system_->spec().group_managers;
  cfg.topology.local_controllers = system_->spec().local_controllers;
  cfg.config = system_->spec().config;

  auto finish = [](const chaos::ChaosRunResult& result) {
    std::ostringstream out;
    out << result.report;
    out << "trace hash: " << std::hex << result.trace_hash << std::dec << "\n";
    return CommandResult{result.ok(), false, out.str()};
  };

  if (args[0] == "seed" || args[0] == "show") {
    char* end = nullptr;
    cfg.seed = std::strtoull(args[1].c_str(), &end, 10);
    // strtoull wraps a leading minus ("-5" -> 2^64 - 5) instead of failing.
    if (end == args[1].c_str() || *end != '\0' || args[1][0] == '-') {
      return {false, false, "chaos: bad seed '" + args[1] + "'\n"};
    }
    if (args.size() > 2) cfg.spec.duration = chaos::parse_duration(args[2]);
    if (args[0] == "show") {
      const auto schedule =
          chaos::generate_schedule(cfg.spec, cfg.topology, cfg.seed);
      return {true, false, schedule.to_script()};
    }
    return finish(chaos::run_chaos(cfg));
  }
  if (args[0] == "script") {
    std::ifstream in(args[1]);
    if (!in) return {false, false, "chaos: cannot open " + args[1] + "\n"};
    std::ostringstream text;
    text << in.rdbuf();
    try {
      const auto schedule = chaos::parse_script(text.str());
      return finish(chaos::run_chaos_schedule(cfg, schedule));
    } catch (const std::exception& e) {
      return {false, false, std::string(e.what()) + "\n"};
    }
  }
  return {false, false, usage};
}

namespace {

CommandResult write_file(const std::string& path, const std::string& content,
                         const std::string& cmd) {
  std::ofstream out(path);
  if (!out) return {false, false, cmd + ": cannot open " + path + "\n"};
  out << content;
  return {true, false, "wrote " + path + "\n"};
}

}  // namespace

CommandResult CliSession::cmd_metrics(const std::vector<std::string>& args) {
  const std::string usage = "usage: metrics show | metrics csv <file>\n";
  if (args.empty()) return {false, false, usage};
  // Engine gauges are pull-sampled so observation never schedules events.
  system_->telemetry().sample_engine(system_->engine());
  const auto& registry = system_->telemetry().metrics();
  if (args[0] == "show") return {true, false, telemetry::metrics_table(registry)};
  if (args[0] == "csv") {
    if (args.size() < 2) return {false, false, usage};
    return write_file(args[1], telemetry::metrics_csv(registry), "metrics csv");
  }
  return {false, false, usage};
}

CommandResult CliSession::cmd_trace(const std::vector<std::string>& args) {
  const std::string usage = "usage: trace export <file> | trace csv <file>\n";
  if (args.size() < 2) return {false, false, usage};
  const auto& spans = system_->telemetry().spans();
  if (args[0] == "export") {
    // Spans plus Perfetto counter lanes from the health monitor's series and
    // incident windows/evidence instants from the passive incident engine.
    monitor_->sample_now();
    return write_file(
        args[1],
        obs::chrome_trace_with_incidents(
            obs::chrome_trace_with_counters(spans, system_->engine().now(),
                                            monitor_->store()),
            analyze_incidents_now()),
        "trace export");
  }
  if (args[0] == "csv") {
    return write_file(args[1], telemetry::spans_csv(spans), "trace csv");
  }
  return {false, false, usage};
}

CommandResult CliSession::cmd_health(const std::vector<std::string>& args) {
  // Pull-refresh so the dashboard reflects the current virtual time even if
  // the last periodic tick is up to one period old.
  monitor_->sample_now();
  if (args.empty()) return {true, false, monitor_->dashboard()};
  if (args[0] == "csv") {
    if (args.size() < 2) return {false, false, "usage: health csv <file>\n"};
    return write_file(args[1], monitor_->store().csv(), "health csv");
  }
  if (args[0] == "path") return {true, false, monitor_->critical_path().table()};
  return {false, false, "usage: health | health csv <file> | health path\n"};
}

obs::IncidentReport CliSession::analyze_incidents_now() const {
  obs::AddressNames names;
  for (const auto& gm : system_->group_managers()) {
    names[gm->address()] = gm->name();
  }
  for (const auto& lc : system_->local_controllers()) {
    names[lc->address()] = lc->name();
  }
  return obs::analyze_incidents(system_->trace().records(),
                                &system_->telemetry().spans(),
                                system_->engine().now(), names);
}

CommandResult CliSession::cmd_incident(const std::vector<std::string>& args) {
  const std::string usage =
      "usage: incident list | incident show <id> | incident csv <file>\n";
  if (args.empty()) return {false, false, usage};
  const obs::IncidentReport report = analyze_incidents_now();
  if (args[0] == "list") {
    if (report.episodes.empty()) return {true, false, "no incidents\n"};
    return {true, false, report.table()};
  }
  if (args[0] == "show") {
    if (args.size() < 2) return {false, false, usage};
    const int id = chaos::parse_int(args[1], 0, "incident id");
    return {true, false, report.show(id, &system_->telemetry().spans())};
  }
  if (args[0] == "csv") {
    if (args.size() < 2) return {false, false, usage};
    return write_file(args[1], report.csv(), "incident csv");
  }
  return {false, false, usage};
}

CommandResult CliSession::cmd_slo() {
  monitor_->sample_now();
  return {true, false, monitor_->slo_table()};
}

CommandResult CliSession::cmd_top(const std::vector<std::string>& args) {
  std::size_t n = 10;
  if (!args.empty()) {
    n = parse_count(args[0], "n");
    if (n == 0) return {false, false, "usage: top [n]\n"};
  }
  monitor_->sample_now();
  return {true, false, monitor_->top(n)};
}

namespace {

const char* upgrade_state_name(ops::UpgradeState state) {
  switch (state) {
    case ops::UpgradeState::kIdle: return "idle";
    case ops::UpgradeState::kRunning: return "running";
    case ops::UpgradeState::kPaused: return "paused";
    case ops::UpgradeState::kDone: return "done";
    case ops::UpgradeState::kRolledBack: return "rolled_back";
  }
  return "?";
}

}  // namespace

CommandResult CliSession::cmd_upgrade(const std::vector<std::string>& args) {
  const std::string usage = "usage: upgrade start [version] [wave_size] | upgrade status\n";
  if (args.empty()) return {false, false, usage};

  auto versions = [this](std::ostringstream& out) {
    std::uint32_t lo = ~0u, hi = 0;
    for (const auto& lc : system_->local_controllers()) {
      lo = std::min(lo, lc->software_version());
      hi = std::max(hi, lc->software_version());
    }
    for (const auto& gm : system_->group_managers()) {
      lo = std::min(lo, gm->software_version());
      hi = std::max(hi, gm->software_version());
    }
    out << "fleet versions: v" << lo << (hi != lo ? ".." : "")
        << (hi != lo ? "v" + std::to_string(hi) : "") << "\n";
  };

  if (args[0] == "status") {
    std::ostringstream out;
    versions(out);
    if (upgrade_) {
      out << "upgrade: " << upgrade_state_name(upgrade_->state()) << ", waves "
          << upgrade_->waves_completed() << "/" << upgrade_->wave_count()
          << ", nodes upgraded " << upgrade_->nodes_upgraded() << ", pauses "
          << upgrade_->pauses() << ", rollbacks " << upgrade_->rollbacks() << "\n";
    } else {
      out << "no upgrade run in this session\n";
    }
    return {true, false, out.str()};
  }
  if (args[0] != "start") return {false, false, usage};
  if (upgrade_ && !upgrade_->finished()) {
    return {false, false, "upgrade: already in progress (see 'upgrade status')\n"};
  }

  ops::UpgradeConfig cfg;
  // Default target: one above the highest version currently deployed.
  std::uint32_t current = 0;
  for (const auto& lc : system_->local_controllers()) {
    current = std::max(current, lc->software_version());
  }
  for (const auto& gm : system_->group_managers()) {
    current = std::max(current, gm->software_version());
  }
  cfg.target_version = current + 1;
  if (args.size() > 1) {
    cfg.target_version = static_cast<std::uint32_t>(parse_count(args[1], "version"));
  }
  if (args.size() > 2) cfg.wave_size = parse_count(args[2], "wave size");
  if (cfg.target_version == 0) return {false, false, "upgrade: bad version\n"};
  if (cfg.wave_size == 0) return {false, false, "upgrade: bad wave size\n"};
  upgrade_ = std::make_unique<ops::RollingUpgrade>(*system_, monitor_.get(), cfg);
  upgrade_->start();
  // Drive the run to completion (or a pause that outlives the bound — the
  // session stays interactive either way; 'run' advances a paused upgrade).
  const sim::Time bound = system_->engine().now() + 3600.0;
  while (!upgrade_->finished() && system_->engine().now() < bound &&
         upgrade_->state() != ops::UpgradeState::kPaused) {
    system_->engine().run_until(system_->engine().now() + 5.0);
  }
  std::ostringstream out;
  out << "upgrade to v" << cfg.target_version << ": "
      << upgrade_state_name(upgrade_->state()) << " after "
      << upgrade_->waves_completed() << "/" << upgrade_->wave_count() << " waves ("
      << upgrade_->nodes_upgraded() << " nodes, " << upgrade_->pauses()
      << " pauses, " << upgrade_->forced_drains() << " forced drains)\n";
  versions(out);
  return {upgrade_->state() != ops::UpgradeState::kRolledBack, false, out.str()};
}

CommandResult CliSession::cmd_autoscale(const std::vector<std::string>& args) {
  const std::string usage = "usage: autoscale on | off | status\n";
  if (args.empty()) return {false, false, usage};
  if (args[0] == "on") {
    if (!autoscaler_) autoscaler_ = std::make_unique<ops::Autoscaler>(*system_);
    autoscaler_->start();
    return {true, false, "autoscaler on (advance time with 'run' to let it act)\n"};
  }
  if (args[0] == "off") {
    if (autoscaler_) autoscaler_->stop();
    return {true, false, "autoscaler off\n"};
  }
  if (args[0] != "status") return {false, false, usage};
  std::ostringstream out;
  if (!autoscaler_) {
    out << "autoscaler: never enabled\n";
  } else {
    out << "autoscaler: " << (autoscaler_->running() ? "on" : "off")
        << ", scale_ups " << autoscaler_->scale_ups() << ", scale_downs "
        << autoscaler_->scale_downs();
    if (!std::isnan(autoscaler_->last_utilization())) {
      out << ", fleet utilization " << autoscaler_->last_utilization();
    }
    out << "\n";
  }
  out << "suspended LCs: " << system_->suspended_lc_count() << "/"
      << system_->local_controllers().size() << "\n";
  return {true, false, out.str()};
}

}  // namespace snooze::cli
