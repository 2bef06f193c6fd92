#include "telemetry/export.hpp"

#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/csv.hpp"
#include "util/table.hpp"

namespace snooze::telemetry {

namespace {

std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt(double value, int precision = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace

std::string chrome_trace_json(const SpanCollector& spans, sim::Time now) {
  // tid per actor, in first-seen order (deterministic given the span list).
  std::unordered_map<std::string, int> tids;
  std::vector<std::string> actors;
  for (const SpanRecord& s : spans.spans()) {
    if (tids.emplace(s.actor, static_cast<int>(actors.size()) + 1).second) {
      actors.push_back(s.actor);
    }
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < actors.size(); ++i) {
    if (!first) out << ",";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << (i + 1)
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(actors[i]) << "\"}}";
  }
  for (const SpanRecord& s : spans.spans()) {
    if (!first) out << ",";
    first = false;
    const double dur_us = s.duration(now) * 1e6;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[s.actor] << ",\"name\":\""
        << json_escape(s.name) << "\",\"cat\":\"span\",\"ts\":" << fmt(s.start * 1e6, 3)
        << ",\"dur\":" << fmt(dur_us < 0.0 ? 0.0 : dur_us, 3)
        << ",\"args\":{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
        << ",\"parent\":" << s.parent_id << ",\"status\":\""
        << json_escape(s.open() ? "open" : s.status) << "\"";
    if (!s.detail.empty()) out << ",\"detail\":\"" << json_escape(s.detail) << "\"";
    out << "}}";
  }
  out << "]}";
  return out.str();
}

std::string append_trace_events(std::string trace, std::string_view events) {
  if (events.empty() || !trace.ends_with("]}")) return trace;
  const bool have_events = trace.size() >= 3 && trace[trace.size() - 3] != '[';
  trace.resize(trace.size() - 2);
  if (have_events) trace += ',';
  trace += events;
  trace += "]}";
  return trace;
}

std::string spans_csv(const SpanCollector& spans) {
  std::string out = util::csv_row(
      {"trace_id", "span_id", "parent_id", "name", "actor", "start", "end",
       "status", "detail"});
  out += '\n';
  for (const SpanRecord& s : spans.spans()) {
    out += util::csv_row({std::to_string(s.trace_id), std::to_string(s.span_id),
                          std::to_string(s.parent_id), s.name, s.actor,
                          fmt(s.start), s.open() ? std::string() : fmt(s.end),
                          s.open() ? "open" : s.status, s.detail});
    out += '\n';
  }
  return out;
}

std::string metrics_csv(const MetricsRegistry& registry) {
  std::string out = util::csv_row({"kind", "name", "value", "count", "sum", "min",
                                   "max", "mean", "p50", "p90", "p99"});
  out += '\n';
  for (const auto& [name, counter] : registry.counters()) {
    out += util::csv_row({"counter", name, std::to_string(counter->value()), "", "",
                          "", "", "", "", "", ""});
    out += '\n';
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    // value = current level, sum = time integral, mean = time-weighted average.
    out += util::csv_row({"gauge", name, fmt(gauge->current()), "",
                          fmt(gauge->integral()), "", "", fmt(gauge->average()), "",
                          "", ""});
    out += '\n';
  }
  for (const auto& [name, hist] : registry.histograms()) {
    out += util::csv_row({"histogram", name, "", std::to_string(hist->count()),
                          fmt(hist->sum()), fmt(hist->min()), fmt(hist->max()),
                          fmt(hist->mean()), fmt(hist->percentile(0.5)),
                          fmt(hist->percentile(0.9)), fmt(hist->percentile(0.99))});
    out += '\n';
  }
  return out;
}

std::string metrics_table(const MetricsRegistry& registry) {
  std::ostringstream out;
  if (!registry.counters().empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, counter] : registry.counters()) {
      table.add_row({name, std::to_string(counter->value())});
    }
    out << table.to_string();
  }
  if (!registry.gauges().empty()) {
    util::Table table({"gauge", "current", "time-avg", "integral"});
    for (const auto& [name, gauge] : registry.gauges()) {
      table.add_row({name, util::Table::num(gauge->current()),
                     util::Table::num(gauge->average()),
                     util::Table::num(gauge->integral())});
    }
    if (out.tellp() > 0) out << "\n";
    out << table.to_string();
  }
  if (!registry.histograms().empty()) {
    util::Table table(
        {"histogram", "count", "mean", "min", "p50", "p90", "p99", "max"});
    for (const auto& [name, hist] : registry.histograms()) {
      table.add_row({name, std::to_string(hist->count()),
                     util::Table::num(hist->mean(), 4),
                     util::Table::num(hist->min(), 4),
                     util::Table::num(hist->percentile(0.5), 4),
                     util::Table::num(hist->percentile(0.9), 4),
                     util::Table::num(hist->percentile(0.99), 4),
                     util::Table::num(hist->max(), 4)});
    }
    if (out.tellp() > 0) out << "\n";
    out << table.to_string();
    // Exemplar lines only for histograms that opted in and retained one, so
    // runs without exemplars render byte-identically to before.
    for (const auto& [name, hist] : registry.histograms()) {
      const auto* worst = hist->worst_exemplar();
      if (worst == nullptr) continue;
      out << name << " worst exemplar: value "
          << util::Table::num(worst->value, 4) << " span " << worst->span_id
          << " t " << util::Table::num(worst->time, 2) << "\n";
    }
  }
  if (out.tellp() == 0) return "no metrics recorded\n";
  return out.str();
}

}  // namespace snooze::telemetry
