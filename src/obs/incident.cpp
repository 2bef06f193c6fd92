#include "obs/incident.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "telemetry/export.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace snooze::obs {

namespace {

/// An episode closes once no signal has arrived for this long; the close
/// timestamp is the last signal, not the end of the quiet window.
constexpr double kQuietClose = 30.0;
/// Minimum vote mass for a node-blaming hypothesis to be reported. 2.0 = at
/// least one ladder action or two corroborating weak signals; a single death
/// log (3.0) clears it alone.
constexpr double kMinVoteMass = 2.0;

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string fmt6(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out.push_back(sep);
    out += p;
  }
  return out;
}

/// Value after "vm=" in a span detail, or empty.
std::string parse_vm(std::string_view detail) {
  const auto pos = detail.find("vm=");
  if (pos == std::string_view::npos) return {};
  auto rest = detail.substr(pos + 3);
  const auto space = rest.find(' ');
  return std::string(rest.substr(0, space));
}

/// Build the ranked hypothesis list for one episode's evidence.
void rank_hypotheses(IncidentEpisode& ep) {
  struct Tally {
    double mass = 0.0;
    double first = 0.0;
    std::vector<std::string> cites;
  };
  std::map<std::pair<int, std::string>, Tally> tallies;
  double total = 0.0;
  for (const auto& e : ep.evidence) {
    if (e.weight <= 0.0) continue;
    total += e.weight;
    auto& t = tallies[{static_cast<int>(e.implies), e.target}];
    if (t.mass == 0.0 || e.time < t.first) t.first = e.time;
    t.mass += e.weight;
    if (t.cites.size() < 3) t.cites.push_back(e.kind + "@" + fmt2(e.time));
  }
  if (total <= 0.0) return;

  std::vector<Hypothesis> all;
  for (const auto& [key, t] : tallies) {
    Hypothesis h;
    h.fault_class = static_cast<FaultClass>(key.first);
    h.target = key.second;
    h.vote_mass = t.mass;
    h.confidence = t.mass / total;
    h.first_evidence = t.first;
    h.rationale = join(t.cites, ' ');
    all.push_back(std::move(h));
  }
  std::stable_sort(all.begin(), all.end(), [](const Hypothesis& a,
                                              const Hypothesis& b) {
    if (a.vote_mass != b.vote_mass) return a.vote_mass > b.vote_mass;
    if (a.fault_class != b.fault_class) return a.fault_class < b.fault_class;
    return a.target < b.target;
  });
  // Report every node-blaming hypothesis that clears the mass floor; if none
  // does, fall back to the single strongest candidate (possibly anonymous)
  // so an episode is never silently unexplained.
  for (auto& h : all) {
    if (!h.target.empty() && h.vote_mass >= kMinVoteMass) {
      ep.hypotheses.push_back(std::move(h));
    }
  }
  if (ep.hypotheses.empty()) ep.hypotheses.push_back(std::move(all.front()));
}

/// Blast radius + slowest-submit linkage for one closed episode.
void measure_blast(IncidentEpisode& ep,
                   const std::vector<sim::TraceRecord>& records,
                   const telemetry::SpanCollector* spans, double run_end) {
  std::set<std::string> nodes;
  for (const auto& e : ep.evidence) {
    if (e.kind == "slo.alert") ++ep.alerts;
    if (e.weight > 0.0 && e.actor != "health" && e.actor != "invariants") {
      nodes.insert(e.actor);
    }
    if (!e.target.empty()) nodes.insert(e.target);
  }
  for (const auto& h : ep.hypotheses) {
    if (!h.target.empty()) nodes.insert(h.target);
  }
  ep.affected_nodes.assign(nodes.begin(), nodes.end());

  if (spans != nullptr) {
    std::set<std::string> vms;
    for (const auto& s : spans->spans()) {
      if (s.parent_id != 0 || s.name != "client.submit") continue;
      const double end = s.open() ? run_end : s.end;
      if (s.start > ep.closed || end < ep.opened) continue;
      ++ep.submits;
      if (s.status == "failed") ++ep.failed_submits;
      const std::string vm = parse_vm(s.detail);
      if (!vm.empty()) vms.insert(vm);
      const double dur = end - s.start;
      if (!s.open() && dur > ep.slowest_submit_s) {
        ep.slowest_submit_s = dur;
        ep.slowest_submit_span = s.span_id;
      }
    }
    ep.affected_vms.assign(vms.begin(), vms.end());
  } else {
    for (const auto& r : records) {
      if (r.kind == "client.submit_failed" && r.time >= ep.opened &&
          r.time <= ep.closed) {
        ++ep.failed_submits;
      }
    }
  }
}

}  // namespace

IncidentReport analyze_incidents(const std::vector<sim::TraceRecord>& records,
                                 const telemetry::SpanCollector* spans,
                                 double run_end, const AddressNames& names) {
  IncidentReport report;
  report.run_end = run_end;
  const std::vector<Evidence> stream = collect_evidence(records, names);

  IncidentEpisode current;
  bool open = false;
  double last_signal = 0.0;
  auto finalize = [&](bool at_end) {
    current.id = static_cast<int>(report.episodes.size()) + 1;
    current.closed = last_signal;
    current.open_at_end = at_end && run_end - last_signal < kQuietClose;
    rank_hypotheses(current);
    measure_blast(current, records, spans, run_end);
    report.episodes.push_back(std::move(current));
    current = IncidentEpisode{};
    open = false;
  };

  for (const auto& e : stream) {
    if (open && e.time - last_signal > kQuietClose) finalize(false);
    if (!open) {
      if (!e.opener) continue;  // clears/recoveries never open an episode
      current.opened = e.time;
      current.opened_by = e.kind;
      open = true;
    }
    last_signal = e.time;
    current.evidence.push_back(e);
  }
  if (open) finalize(true);
  return report;
}

std::string IncidentReport::table() const {
  util::Table t({"ep", "opened s", "closed s", "mttr s", "opened by", "cause",
                 "target", "conf", "votes", "detect s", "submits", "failed",
                 "alerts"});
  for (const auto& ep : episodes) {
    const std::string closed =
        fmt2(ep.closed) + (ep.open_at_end ? "+" : "");
    bool first = true;
    auto episode_cell = [&](std::string value) {
      return first ? value : std::string();
    };
    auto add = [&](const Hypothesis* h) {
      t.add_row({episode_cell(std::to_string(ep.id)),
                 episode_cell(fmt2(ep.opened)), episode_cell(closed),
                 episode_cell(fmt2(ep.mttr_s())), episode_cell(ep.opened_by),
                 h != nullptr ? to_string(h->fault_class) : "unknown",
                 h != nullptr && !h->target.empty() ? h->target : "-",
                 h != nullptr ? fmt2(h->confidence) : "-",
                 h != nullptr ? util::Table::num(h->vote_mass, 1) : "-",
                 h != nullptr && h->detection_latency_s >= 0.0
                     ? fmt2(h->detection_latency_s)
                     : "-",
                 episode_cell(std::to_string(ep.submits)),
                 episode_cell(std::to_string(ep.failed_submits)),
                 episode_cell(std::to_string(ep.alerts))});
      first = false;
    };
    if (ep.hypotheses.empty()) {
      add(nullptr);
    } else {
      for (const auto& h : ep.hypotheses) add(&h);
    }
  }
  return t.to_string();
}

std::string IncidentReport::csv() const {
  std::ostringstream out;
  out << util::csv_row({"episode", "opened_s", "closed_s", "mttr_s",
                        "open_at_end", "opened_by", "rank", "fault_class",
                        "target", "confidence", "votes", "first_evidence_s",
                        "matched_fault", "detect_s", "submits",
                        "failed_submits", "alerts", "affected_vms",
                        "affected_nodes"})
      << "\n";
  for (const auto& ep : episodes) {
    int rank = 0;
    for (const auto& h : ep.hypotheses) {
      out << util::csv_row(
                 {std::to_string(ep.id), fmt6(ep.opened), fmt6(ep.closed),
                  fmt6(ep.mttr_s()), ep.open_at_end ? "1" : "0", ep.opened_by,
                  std::to_string(++rank), to_string(h.fault_class), h.target,
                  fmt6(h.confidence), fmt6(h.vote_mass),
                  fmt6(h.first_evidence), std::to_string(h.matched_fault),
                  fmt6(h.detection_latency_s), std::to_string(ep.submits),
                  std::to_string(ep.failed_submits),
                  std::to_string(ep.alerts), join(ep.affected_vms, ';'),
                  join(ep.affected_nodes, ';')})
          << "\n";
    }
  }
  return out.str();
}

std::string IncidentReport::show(int id,
                                 const telemetry::SpanCollector* spans) const {
  const IncidentEpisode* ep = nullptr;
  for (const auto& e : episodes) {
    if (e.id == id) ep = &e;
  }
  if (ep == nullptr) return "no such episode: " + std::to_string(id) + "\n";

  std::ostringstream out;
  out << "incident #" << ep->id << ": opened " << fmt2(ep->opened) << "s by "
      << ep->opened_by << ", closed " << fmt2(ep->closed) << "s"
      << (ep->open_at_end ? " (open at run end)" : "") << ", mttr "
      << fmt2(ep->mttr_s()) << "s\n";
  out << "blast radius: " << ep->submits << " submits (" << ep->failed_submits
      << " failed), " << ep->alerts << " alerts, "
      << ep->affected_vms.size() << " vms";
  if (!ep->affected_vms.empty()) out << " [" << join(ep->affected_vms, ' ') << "]";
  out << ", nodes [" << join(ep->affected_nodes, ' ') << "]\n";

  out << "hypotheses:\n";
  if (ep->hypotheses.empty()) out << "  (none — no weighted evidence)\n";
  int rank = 0;
  for (const auto& h : ep->hypotheses) {
    out << "  #" << ++rank << " " << to_string(h.fault_class) << " "
        << (h.target.empty() ? "(anonymous)" : h.target) << " conf "
        << fmt2(h.confidence) << " votes " << util::Table::num(h.vote_mass, 1)
        << " — " << h.rationale;
    if (h.detection_latency_s >= 0.0) {
      out << " (detected " << fmt2(h.detection_latency_s)
          << "s after injection)";
    }
    out << "\n";
  }

  out << "timeline:\n";
  for (const auto& e : ep->evidence) {
    out << "  " << fmt2(e.time) << "s  " << e.actor << "  " << e.kind;
    if (!e.detail.empty()) out << " [" << e.detail << "]";
    if (e.weight > 0.0) {
      out << "  -> " << to_string(e.implies);
      if (!e.target.empty()) out << " " << e.target;
      out << " +" << util::Table::num(e.weight, 1);
    }
    out << "\n";
  }

  if (spans != nullptr && ep->slowest_submit_span != 0) {
    const telemetry::SpanRecord* root = spans->find(ep->slowest_submit_span);
    if (root != nullptr) {
      out << "slowest submit in window: span " << root->span_id << " ("
          << fmt2(ep->slowest_submit_s) << "s, " << root->detail << ")\n";
      // One level of the span tree is enough to see where the time went;
      // children are already in begin() order.
      for (const auto* child : spans->children_of(root->span_id)) {
        out << "  " << fmt2(child->start) << "s  " << child->name << " ("
            << fmt2(child->duration(run_end)) << "s, "
            << (child->status.empty() ? "open" : child->status) << ")\n";
      }
    }
  }
  return out.str();
}

std::string chrome_trace_with_incidents(std::string base,
                                        const IncidentReport& report) {
  std::string events;
  char buf[256];
  for (const auto& ep : report.episodes) {
    const char* cause = ep.hypotheses.empty()
                            ? "unknown"
                            : to_string(ep.hypotheses.front().fault_class);
    const std::string target =
        ep.hypotheses.empty() ? "" : ep.hypotheses.front().target;
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":9990,\"cat\":\"incident\","
                  "\"name\":\"incident#%d %s %s\",\"ts\":%.3f,\"dur\":%.3f}",
                  events.empty() ? "" : ",", ep.id, cause, target.c_str(),
                  ep.opened * 1e6,
                  std::max(ep.mttr_s(), 1e-6) * 1e6);
    events += buf;
    for (const auto& e : ep.evidence) {
      if (e.weight <= 0.0) continue;
      std::snprintf(buf, sizeof(buf),
                    ",{\"ph\":\"i\",\"pid\":1,\"tid\":9990,\"s\":\"g\","
                    "\"cat\":\"incident\",\"name\":\"%s %s\",\"ts\":%.3f}",
                    e.kind.c_str(), e.target.c_str(), e.time * 1e6);
      events += buf;
    }
  }
  return telemetry::append_trace_events(std::move(base), events);
}

}  // namespace snooze::obs
