#include "obs/health_monitor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "telemetry/export.hpp"
#include "util/table.hpp"

namespace snooze::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kRateWindow = 60.0;  ///< trailing window for per-minute rates

std::string fmt6(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

const char* power_state_name(energy::PowerState s) {
  switch (s) {
    case energy::PowerState::kOn: return "on";
    case energy::PowerState::kSuspended: return "suspended";
    case energy::PowerState::kOff: return "off";
    case energy::PowerState::kSuspending: return "suspending";
    case energy::PowerState::kResuming: return "resuming";
    case energy::PowerState::kBooting: return "booting";
  }
  return "?";
}

}  // namespace

HealthMonitor::HealthMonitor(core::SnoozeSystem& system, std::size_t max_rows)
    : sim::Actor(system.engine(), "health"), system_(system), store_(max_rows),
      slo_(system.spec().config.slo) {
  col_.hosts_on = store_.add_column("hosts.on");
  col_.hosts_suspended = store_.add_column("hosts.suspended");
  col_.hosts_off = store_.add_column("hosts.off");
  col_.lcs_assigned = store_.add_column("lcs.assigned");
  col_.vms_running = store_.add_column("vms.running");
  col_.energy_j = store_.add_column("energy.joules");
  col_.energy_on_j = store_.add_column("energy.on_joules");
  col_.energy_suspended_j = store_.add_column("energy.suspended_joules");
  col_.energy_off_j = store_.add_column("energy.off_joules");
  col_.work_vm_s = store_.add_column("work.vm_seconds");
  col_.hb_staleness = store_.add_column("heartbeat.staleness_max_s");
  col_.queue_depth = store_.add_column("engine.queue_depth");
  col_.placements = store_.add_column("placements.total");
  col_.migrations = store_.add_column("migrations.total");
  col_.submits = store_.add_column("submits.total");
  col_.fence_rejected = store_.add_column("fence.rejected_total");
  col_.mttr_s = store_.add_column("failover.mttr_s");
  col_.failovers = store_.add_column("failover.episodes");
  col_.submit_p50 = store_.add_column("submit.p50_s");
  col_.submit_p99 = store_.add_column("submit.p99_s");
  col_.slo_firing = store_.add_column("slo.firing");
  col_.slo_flaps = store_.add_column("slo.flaps_per_hour");
  col_.summary_bytes_per_gm = store_.add_column("summary.bytes_per_gm_period");
  col_.summary_staleness = store_.add_column("summary.staleness_s");
  col_.gray_slow_nodes = store_.add_column("gray.slow_nodes");
  col_.gray_quarantined = store_.add_column("gray.quarantined");
  col_.rpc_hedges_won = store_.add_column("rpc.hedges_won");
  col_.breaker_open_s = store_.add_column("breaker.open_s");
  row_.resize(store_.column_count());
}

void HealthMonitor::start() {
  if (started_) return;
  started_ = true;
  sample_now();
  every(slo_.config().sample_period, [this] {
    tick();
    return true;
  });
}

void HealthMonitor::tick() { sample_now(); }

std::uint64_t HealthMonitor::alerts_fired() const {
  return system_.telemetry().metrics().value("slo.alerts_fired");
}

std::uint64_t HealthMonitor::alerts_cleared() const {
  return system_.telemetry().metrics().value("slo.alerts_cleared");
}

double HealthMonitor::failover_mttr() const {
  return mttr_count_ ? mttr_sum_ / static_cast<double>(mttr_count_) : kNaN;
}

void HealthMonitor::scan_trace() {
  const sim::Trace& trace = system_.trace();
  const auto& records = trace.records();
  const std::uint64_t dropped = trace.dropped();
  const std::uint64_t total = dropped + records.size();
  if (total < scanned_records_) {
    // The trace was cleared (dropped resets with it): restart from whatever
    // is retained now rather than indexing past the end.
    scanned_records_ = dropped;
    episode_started_ = -1.0;
    current_gl_.clear();
  }
  if (scanned_records_ < dropped) {
    // The ring trimmed records the scan never saw. An election or
    // reconciliation may have been inside the gap, so closing an open episode
    // against the next boundary would fabricate an MTTR sample; drop the open
    // episode and the GL identity instead and resume from the retained tail.
    ++scan_gaps_;
    episode_started_ = -1.0;
    current_gl_.clear();
    scanned_records_ = dropped;
  }
  const std::size_t begin =
      std::min(static_cast<std::size_t>(scanned_records_ - dropped), records.size());
  for (std::size_t i = begin; i < records.size(); ++i) {
    const sim::TraceRecord& r = records[i];
    if (r.kind == "gm.elected_gl") {
      current_gl_ = r.actor;
    } else if (r.kind == "gm.fail") {
      if (r.actor == current_gl_ && !current_gl_.empty() && episode_started_ < 0.0) {
        episode_started_ = r.time;  // the acting GL died: recovery clock starts
      }
    } else if (r.kind == "gl.reconciled") {
      if (episode_started_ >= 0.0) {
        mttr_sum_ += r.time - episode_started_;
        ++mttr_count_;
        episode_started_ = -1.0;
      }
      current_gl_ = r.actor;
    }
  }
  scanned_records_ = total;
}

void HealthMonitor::sample_now() {
  const double now = engine().now();
  if (store_.row_count() > 0 && store_.latest_time() == now) return;

  scan_trace();

  // --- host / VM / hierarchy state, energy / work --------------------------
  // One walk over the LCs. The energy and work sums add the same per-LC
  // terms in the same LC order as SnoozeSystem::total_energy_by_state(),
  // total_energy() and total_work(), so each is bit for bit what that
  // function returns; the total is Σ energy_joules, not the split summed in
  // another order.
  double on = 0.0, suspended = 0.0, off = 0.0, assigned = 0.0;
  double staleness = 0.0;
  std::array<double, energy::kNumPowerClasses> energy_split{};
  double energy_total = 0.0;
  double work = 0.0;
  for (const auto& lc : system_.local_controllers()) {
    const auto lc_split = lc->host().meter().joules_by_class(now);
    for (std::size_t i = 0; i < energy_split.size(); ++i) energy_split[i] += lc_split[i];
    energy_total += lc->energy_joules(now);
    work += lc->total_work(now);
    if (!lc->alive()) {
      off += 1.0;
      continue;
    }
    switch (energy::power_class(lc->power_state())) {
      case energy::PowerClass::kOn: on += 1.0; break;
      case energy::PowerClass::kSuspended: suspended += 1.0; break;
      case energy::PowerClass::kOff: off += 1.0; break;
    }
    if (lc->assigned()) {
      assigned += 1.0;
      if (!lc->suspended()) staleness = std::max(staleness, lc->gm_heartbeat_age(now));
    }
  }

  // --- throughput counters (cumulative; rates derived over the window) -----
  const telemetry::Telemetry* tel = &system_.telemetry();
  const auto counter = [tel](auto& reader) {
    return static_cast<double>(telemetry::value(tel, reader));
  };
  const double placements = counter(reads_.placements);
  const double migrations = counter(reads_.migrations);
  // The registry counter, not the per-node fences: a GM's fence restarts
  // from zero with the GM, and a cumulative column must never fall.
  const double fence_rejected = counter(reads_.fence_rejected);

  // --- summary protocol ----------------------------------------------------
  // Bytes per summary-sending GM per period over the trailing rate window,
  // and the stalest GM summary at the acting GL (NaN until there is a rate
  // window and a GL with known GMs). Normalized per sender, not per LC: a
  // converged delta stream costs one near-empty header per GM per period
  // whatever the fleet shape, so the same threshold works for a 4-LC test
  // cluster and a 200-LC production shape.
  double summary_bytes_per_gm = kNaN;
  double summary_staleness = kNaN;
  const double total_bytes = counter(reads_.summary_bytes);
  double senders = 0.0;
  for (const auto& gm : system_.group_managers()) {
    if (gm->is_leader()) {
      const double s = gm->summary_staleness();
      if (s >= 0.0) summary_staleness = s;
    } else if (gm->alive()) {
      ++senders;
    }
  }
  // Samples leave the window from the front by moving the head; the live
  // tail moves down once the dead prefix is as long as it, so the buffer
  // keeps its capacity and each sample costs O(1) amortized.
  auto& window = summary_bytes_window_;
  std::size_t& head = summary_bytes_head_;
  while (head < window.size() && now - window[head].time > kRateWindow) ++head;
  if (head < window.size() && senders > 0.0) {
    const BytesSample& oldest = window[head];
    if (now > oldest.time) {
      const double rate = (total_bytes - oldest.bytes) / (now - oldest.time);
      summary_bytes_per_gm = rate * system_.spec().config.gm_summary_period / senders;
    }
  }
  if (head > 0 && head * 2 >= window.size()) {
    window.erase(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  window.push_back({now, total_bytes});

  // --- gray-failure detection ----------------------------------------------
  // Slow nodes = LCs held on probation or in quarantine by their GM, plus GMs
  // the acting GL flags (read-only state, so sampling stays deterministic).
  double gray_slow = 0.0, gray_quarantined = 0.0, breaker_open_s = 0.0;
  for (const auto& gm : system_.group_managers()) {
    gray_slow += static_cast<double>(gm->probation_count() + gm->quarantined_count());
    gray_quarantined += static_cast<double>(gm->quarantined_count());
    if (gm->is_leader()) gray_slow += static_cast<double>(gm->gm_probation_count());
    breaker_open_s += gm->breaker_open_seconds();
  }
  const double hedges_won = counter(reads_.hedges_won);
  telemetry::gauge_set(&system_.telemetry(), gauges_.slow_nodes, gray_slow);
  telemetry::gauge_set(&system_.telemetry(), gauges_.quarantined, gray_quarantined);

  // --- latency percentiles (NaN until the first submission completes) -----
  if (const telemetry::Histogram* h = reads_.submit_latency.find(tel);
      h != nullptr && h->count() != latency_count_) {
    latency_count_ = h->count();
    p50_ = h->percentile(0.5);
    p99_ = h->percentile(0.99);
  }

  std::vector<double>& row = row_;  // every column is set below
  row[col_.hosts_on] = on;
  row[col_.hosts_suspended] = suspended;
  row[col_.hosts_off] = off;
  row[col_.lcs_assigned] = assigned;
  row[col_.vms_running] = static_cast<double>(system_.running_vm_count());
  row[col_.energy_j] = energy_total;
  row[col_.energy_on_j] = energy_split[static_cast<std::size_t>(energy::PowerClass::kOn)];
  row[col_.energy_suspended_j] =
      energy_split[static_cast<std::size_t>(energy::PowerClass::kSuspended)];
  row[col_.energy_off_j] = energy_split[static_cast<std::size_t>(energy::PowerClass::kOff)];
  row[col_.work_vm_s] = work;
  row[col_.hb_staleness] = staleness;
  row[col_.queue_depth] = static_cast<double>(system_.engine().pending_events());
  row[col_.placements] = placements;
  row[col_.migrations] = migrations;
  row[col_.submits] = static_cast<double>(system_.client().submitted());
  row[col_.fence_rejected] = fence_rejected;
  row[col_.mttr_s] = failover_mttr();
  row[col_.failovers] = static_cast<double>(mttr_count_);
  row[col_.submit_p50] = p50_;
  row[col_.submit_p99] = p99_;
  row[col_.slo_firing] = static_cast<double>(slo_.firing_count());
  // Flap rate normalized to per-hour whatever the configured window.
  const double flap_window = slo_.config().flap_window_s;
  row[col_.slo_flaps] =
      flap_window > 0.0 ? slo_.flaps_in_window(now) * 3600.0 / flap_window : 0.0;
  row[col_.summary_bytes_per_gm] = summary_bytes_per_gm;
  row[col_.summary_staleness] = summary_staleness;
  row[col_.gray_slow_nodes] = gray_slow;
  row[col_.gray_quarantined] = gray_quarantined;
  row[col_.rpc_hedges_won] = hedges_won;
  row[col_.breaker_open_s] = breaker_open_s;
  store_.append_row(now, row);

  evaluate_slos(now);
}

std::vector<std::string> HealthMonitor::sli_names() {
  return {"energy_per_vm_hour",   "failover_mttr",
          "fence_rejected_rate",  "heartbeat_staleness",
          "submit_p50",           "submit_p99",
          "summary_bytes_per_gm", "summary_staleness"};
}

void HealthMonitor::evaluate_slos(double now) {
  const core::SloConfig& cfg = slo_.config();

  // Energy per VM-hour: undefined until enough useful work accumulated.
  const double vm_hours = store_.latest(col_.work_vm_s) / 3600.0;
  const double energy_sli = vm_hours >= cfg.energy_min_vm_hours
                                ? store_.latest(col_.energy_j) / vm_hours
                                : kNaN;

  // Stale-command rejections per minute over the trailing window.
  double fence_rate = kNaN;
  const double span = store_.span_over(kRateWindow);
  if (!std::isnan(span) && span > 0.0) {
    fence_rate = store_.delta_over(col_.fence_rejected, kRateWindow) * 60.0 / span;
  }

  // Fixed evaluation order: SLI names sort the trace records deterministically.
  const struct {
    const char* name;
    double value;
    double threshold;
  } slis[] = {
      {"energy_per_vm_hour", energy_sli, cfg.energy_per_vm_hour_max_j},
      {"failover_mttr", failover_mttr(), cfg.failover_mttr_max_s},
      {"fence_rejected_rate", fence_rate, cfg.fence_rejected_per_min_max},
      {"heartbeat_staleness", store_.latest(col_.hb_staleness), cfg.heartbeat_staleness_max_s},
      {"submit_p50", store_.latest(col_.submit_p50), cfg.submit_p50_max_s},
      {"submit_p99", store_.latest(col_.submit_p99), cfg.submit_p99_max_s},
      {"summary_bytes_per_gm", store_.latest(col_.summary_bytes_per_gm),
       cfg.summary_bytes_per_gm_period_max},
      {"summary_staleness", store_.latest(col_.summary_staleness),
       cfg.summary_staleness_max_s},
  };
  static_assert(std::size(slis) == std::tuple_size_v<decltype(slis_)>);
  for (std::size_t i = 0; i < slis_.size(); ++i) {
    const auto& sli = slis[i];
    if (slis_[i] == nullptr) slis_[i] = &slo_.track(sli.name);
    const auto transition = slo_.observe(*slis_[i], sli.value, sli.threshold, now);
    if (!transition) continue;
    std::string detail = std::string("sli=") + sli.name +
                         " value=" + fmt6(transition->value) +
                         " threshold=" + fmt6(transition->threshold);
    system_.trace().record("health", transition->fired ? "slo.alert" : "slo.clear",
                           detail);
    telemetry::count(&system_.telemetry(),
                     transition->fired ? "slo.alerts_fired" : "slo.alerts_cleared");
  }
  telemetry::gauge_set(&system_.telemetry(), gauges_.slo_firing,
                       static_cast<double>(slo_.firing_count()));
  telemetry::gauge_set(&system_.telemetry(), gauges_.slo_flaps,
                       store_.latest(col_.slo_flaps));
}

CriticalPathReport HealthMonitor::critical_path() const {
  return analyze_critical_path(system_.telemetry().spans(), system_.engine().now());
}

std::string HealthMonitor::dashboard() const {
  std::ostringstream out;
  if (store_.row_count() == 0) return "no samples yet\n";
  out << "health @ t=" << util::Table::num(store_.latest_time(), 2) << " s ("
      << store_.row_count() << " samples, cadence "
      << util::Table::num(slo_.config().sample_period, 2) << " s)\n";
  util::Table table({"series", "latest", "delta/60s"});
  for (std::size_t c = 0; c < store_.column_count(); ++c) {
    const double delta = store_.delta_over(c, kRateWindow);
    table.add_row({store_.columns()[c], util::Table::num(store_.latest(c), 3),
                   std::isnan(delta) ? "-" : util::Table::num(delta, 3)});
  }
  out << table.to_string();
  return out.str();
}

std::string HealthMonitor::slo_table() const {
  std::ostringstream out;
  const auto& status = slo_.status();
  if (status.empty()) return "no SLIs evaluated yet\n";
  util::Table table({"sli", "value", "threshold", "state", "burn", "fired"});
  std::size_t firing = 0;
  for (const auto& [name, s] : status) {
    if (s.firing()) ++firing;
    table.add_row({name, std::isnan(s.value) ? "-" : util::Table::num(s.value, 3),
                   util::Table::num(s.threshold, 3), s.firing() ? "FIRING" : "OK",
                   std::to_string(s.burn_streak), std::to_string(s.times_fired)});
  }
  out << table.to_string();
  out << (firing == 0 ? "all SLOs met" : std::to_string(firing) + " SLO(s) violated")
      << "\n";
  return out.str();
}

std::string HealthMonitor::top(std::size_t n) const {
  const double now = system_.engine().now();
  struct Node {
    const core::LocalController* lc;
    std::size_t vms;
    double energy;
  };
  std::vector<Node> nodes;
  for (const auto& lc : system_.local_controllers()) {
    nodes.push_back({lc.get(), lc->alive() ? lc->vm_count() : 0, lc->energy_joules(now)});
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
    if (a.vms != b.vms) return a.vms > b.vms;
    if (a.energy != b.energy) return a.energy > b.energy;
    return a.lc->name() < b.lc->name();
  });
  if (n != 0 && nodes.size() > n) nodes.resize(n);

  util::Table table({"node", "power", "vms", "util", "gray", "hb_age", "energy_j"});
  for (const Node& node : nodes) {
    const core::LocalController& lc = *node.lc;
    const bool alive = lc.alive();
    std::string gray = "-";
    for (const auto& gm : system_.group_managers()) {
      const int health = gm->lc_health_of(lc.address());
      if (health < 0) continue;
      gray = health == 0 ? "ok" : health == 1 ? "probation" : "quarantine";
      break;
    }
    table.add_row({lc.name(), alive ? power_state_name(lc.power_state()) : "dead",
                   std::to_string(node.vms),
                   alive ? util::Table::pct(lc.host().utilization(now)) : "-", gray,
                   alive ? util::Table::num(lc.gm_heartbeat_age(now), 2) : "-",
                   util::Table::num(node.energy, 0)});
  }
  return table.to_string();
}

std::string chrome_trace_with_counters(const telemetry::SpanCollector& spans,
                                       sim::Time now, const TimeSeriesStore& store) {
  std::string base = telemetry::chrome_trace_json(spans, now);
  // base ends with "]}" closing traceEvents and the object; splice counter
  // events in before the "]".
  if (base.size() < 2 || base.compare(base.size() - 2, 2, "]}") != 0) return base;
  const bool have_events = base.size() >= 3 && base[base.size() - 3] != '[';
  base.resize(base.size() - 2);

  std::ostringstream out;
  out << base;
  bool first = !have_events;
  char buf[160];
  for (std::size_t row = 0; row < store.row_count(); ++row) {
    const double ts_us = store.time_at(row) * 1e6;
    for (std::size_t col = 0; col < store.column_count(); ++col) {
      const double value = store.value_at(row, col);
      if (std::isnan(value)) continue;  // Perfetto counters need finite values
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"C\",\"pid\":1,\"name\":\"%s\",\"ts\":%.3f,"
                    "\"args\":{\"value\":%.10g}}",
                    first ? "" : ",", store.columns()[col].c_str(), ts_us, value);
      first = false;
      out << buf;
    }
  }
  out << "]}";
  return out.str();
}

}  // namespace snooze::obs
