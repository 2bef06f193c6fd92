// Event-queue scaling benchmark: the calendar-queue engine vs the original
// binary-heap engine under a control-plane workload shaped like a 10k-LC
// Snooze deployment (periodic heartbeats, RPC timeout guards cancelled on
// success, long-lived lifecycle timers hitting the overflow path).
//
// The acceptance bar for the queue rewrite: >= 3x fired-events-per-second
// over the heap baseline at 10,000 LCs across a 30-virtual-minute run.
//
// After the sweep, one jittered fan-out row runs at the largest swept size:
// the same per-LC loop plus one group heartbeat per 100 LCs that reaches
// them after 0.5 ms + U(0, 0.2 ms), the default net::LatencyModel, so
// deliveries fall due in no particular order and the calendar pays the
// per-bucket sort the full stack pays. The sweep rows schedule without
// jitter; their buckets fill already sorted.
//
//   bench_engine_scale [--quick] [--json=BENCH_engine.json] [--min-eps=N]
//                      [--min-monotonicity=R] [--sizes=a,b,c] [--repeats=N]
//
// --quick     small sweep (100/1k/5k LCs, 2 virtual minutes) for CI smoke
// --json      write machine-readable results to this path
// --min-eps   exit non-zero if the calendar engine's events/sec at the
//             largest swept size, or on the fan-out row, falls below this
//             floor (CI regression gate)
// --repeats   best-of-N per (engine, size) point, interleaved heap/calendar
//             pairs (default 3). Shared-runner noise shows up as slowdowns,
//             never speedups, so the fastest repeat is the least-perturbed
//             measurement of each engine; interleaving keeps a noisy window
//             from penalizing only one side of the ratio.
// --min-monotonicity
//             exit non-zero if any row's speedup sags below R x the previous
//             row's (rows >= 1000 LCs; the 100-LC row is noise-dominated).
//             This is the scale-gate guard against the locality regression
//             returning: the curve must not fall off at the large end.
// --sizes     comma-separated LC counts overriding the sweep
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "sim/engine.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

namespace {

using namespace snooze;
using sim::Time;

/// The seed repository's engine, kept verbatim as the measurement baseline:
/// one global binary heap whose nodes carry the closures, with lazy
/// tombstone cancellation through an unordered_set.
class HeapEngine {
 public:
  using EventId = std::uint64_t;

  [[nodiscard]] Time now() const { return now_; }

  EventId schedule(Time delay, std::function<void()> fn) {
    const EventId id = next_id_++;
    queue_.push(Event{now_ + delay, id, std::move(fn)});
    return id;
  }

  bool cancel(EventId id) {
    if (id == 0 || id >= next_id_) return false;
    return cancelled_.insert(id).second;
  }

  std::size_t run_until(Time until) {
    std::size_t fired = 0;
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (top.time > until) break;
      Event ev{top.time, top.id, std::move(const_cast<Event&>(top).fn)};
      queue_.pop();
      if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.time;
      ev.fn();
      ++fired;
    }
    return fired;
  }

 private:
  struct Event {
    Time time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  Time now_ = 0.0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
};

/// Synthetic per-LC control loop, identical for both engines (no RNG, so the
/// two runs fire exactly the same event sequence):
///  - a heartbeat every 3 s;
///  - each heartbeat opens a 5 s timeout guard that the "reply" cancels
///    50 ms later — the schedule/cancel churn every successful RPC causes;
///  - a long-lived lifecycle timer per LC (>= 600 s out, the overflow path).
template <typename EngineT>
struct Workload {
  explicit Workload(EngineT& e, std::size_t n) : engine(e), timeout(n, 0) {
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule(0.01 * static_cast<double>(i % 300) + 1e-4,
                      [this, i] { heartbeat(i); });
      engine.schedule(lifecycle_span(i), [this, i] { lifecycle(i); });
    }
  }

  void heartbeat(std::size_t i) {
    ++fired;
    timeout[i] = engine.schedule(5.0, [this] { ++fired; });  // guard, rarely fires
    engine.schedule(0.05, [this, i] {  // the reply: cancel the guard
      ++fired;
      if (engine.cancel(timeout[i])) ++cancels;
    });
    engine.schedule(3.0, [this, i] { heartbeat(i); });
  }

  void lifecycle(std::size_t i) {
    ++fired;
    engine.schedule(lifecycle_span(i), [this, i] { lifecycle(i); });
  }

  [[nodiscard]] static Time lifecycle_span(std::size_t i) {
    return 600.0 + static_cast<double>((i * 997) % 6600);
  }

  EngineT& engine;
  std::vector<typename EngineT::EventId> timeout;
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
};

/// The per-LC loop above plus jittered group heartbeats, identical for both
/// engines: every 3 s each of n / kFanout group managers reaches its
/// kFanout LCs, each copy landing after 0.5 ms + U(0, 0.2 ms) like
/// net::LatencyModel's default. A fan-out is scheduled in receiver order but
/// falls due in random order. The jitter stream is drawn in firing order,
/// which both engines share.
template <typename EngineT>
struct FanoutWorkload : Workload<EngineT> {
  static constexpr std::size_t kFanout = 100;

  FanoutWorkload(EngineT& e, std::size_t n) : Workload<EngineT>(e, n), jitter(2012) {
    const std::size_t senders = std::max<std::size_t>(1, n / kFanout);
    for (std::size_t s = 0; s < senders; ++s) {
      this->engine.schedule(0.03 * static_cast<double>(s % 100) + 2e-4,
                            [this] { group_heartbeat(); });
    }
  }

  void group_heartbeat() {
    ++this->fired;
    for (std::size_t r = 0; r < kFanout; ++r) {
      this->engine.schedule(0.5e-3 + jitter.uniform(0.0, 0.2e-3), [this] { ++this->fired; });
    }
    this->engine.schedule(3.0, [this] { group_heartbeat(); });
  }

  util::Rng jitter;
};

struct RunResult {
  std::uint64_t fired = 0;
  std::uint64_t cancels = 0;
  double wall_s = 0.0;
  [[nodiscard]] double eps() const { return wall_s > 0.0 ? static_cast<double>(fired) / wall_s : 0.0; }
};

template <typename EngineT, template <typename> class Load = Workload>
RunResult run_workload(std::size_t n_lcs, double horizon) {
  EngineT engine;
  Load<EngineT> load(engine, n_lcs);
  const auto start = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  const auto stop = std::chrono::steady_clock::now();
  return {load.fired, load.cancels,
          std::chrono::duration<double>(stop - start).count()};
}

// sim::Engine takes a seed argument; give it the default-constructible shape
// the template expects.
struct CalendarEngine : sim::Engine {
  using EventId = sim::EventId;
  CalendarEngine() : sim::Engine(1) {}
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const double min_eps = args.get_double("min-eps", 0.0);
  const double min_monotonicity = args.get_double("min-monotonicity", 0.0);
  const std::string json_path = args.get("json", "");
  const std::string sizes_arg = args.get("sizes", "");
  const int repeats =
      static_cast<int>(args.get_double("repeats", 3.0));
  if (repeats < 1) {
    std::fprintf(stderr, "FATAL: --repeats must be >= 1\n");
    return 2;
  }
  const double horizon = quick ? 120.0 : 1800.0;
  std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{100, 1000, 5000}
            : std::vector<std::size_t>{100,   1000,  2500,  5000,
                                       10000, 25000, 50000, 100000};
  if (!sizes_arg.empty()) {
    sizes.clear();
    std::size_t pos = 0;
    while (pos < sizes_arg.size()) {
      const std::size_t comma = sizes_arg.find(',', pos);
      const std::string tok = sizes_arg.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!tok.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(tok)));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (sizes.empty()) {
      std::fprintf(stderr, "FATAL: --sizes parsed to an empty sweep\n");
      return 2;
    }
  }

  bench::print_header(
      "engine scaling: calendar queue vs binary heap",
      "self-* at scale — the hierarchy must manage thousands of LCs");
  std::printf("horizon: %.0f virtual seconds per run, best of %d repeats\n\n",
              horizon, repeats);
  std::printf("%8s  %14s  %14s  %9s\n", "LCs", "heap ev/s", "calendar ev/s",
              "speedup");

  struct Row {
    std::size_t lcs;
    RunResult heap, cal;
  };
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    RunResult heap, cal;
    for (int rep = 0; rep < repeats; ++rep) {
      const RunResult h = run_workload<HeapEngine>(n, horizon);
      const RunResult c = run_workload<CalendarEngine>(n, horizon);
      if (h.fired != c.fired || h.cancels != c.cancels ||
          (rep > 0 && h.fired != heap.fired)) {
        std::fprintf(stderr,
                     "FATAL: engines disagree at %zu LCs (heap fired %llu, "
                     "calendar fired %llu)\n",
                     n, static_cast<unsigned long long>(h.fired),
                     static_cast<unsigned long long>(c.fired));
        return 2;
      }
      if (rep == 0 || h.wall_s < heap.wall_s) heap = h;
      if (rep == 0 || c.wall_s < cal.wall_s) cal = c;
    }
    std::printf("%8zu  %14.0f  %14.0f  %8.2fx\n", n, heap.eps(), cal.eps(),
                cal.eps() / heap.eps());
    rows.push_back({n, heap, cal});
  }

  const Row& top = rows.back();
  const double speedup = top.cal.eps() / top.heap.eps();
  std::printf("\nat %zu LCs: %.2fx events/sec over the heap baseline\n",
              top.lcs, speedup);

  // The jittered fan-out row, at the largest swept size.
  constexpr std::size_t kFanout = FanoutWorkload<CalendarEngine>::kFanout;
  Row fan{top.lcs, {}, {}};
  for (int rep = 0; rep < repeats; ++rep) {
    const RunResult h = run_workload<HeapEngine, FanoutWorkload>(fan.lcs, horizon);
    const RunResult c = run_workload<CalendarEngine, FanoutWorkload>(fan.lcs, horizon);
    if (h.fired != c.fired || h.cancels != c.cancels) {
      std::fprintf(stderr,
                   "FATAL: engines disagree on the fan-out row (heap fired %llu, "
                   "calendar fired %llu)\n",
                   static_cast<unsigned long long>(h.fired),
                   static_cast<unsigned long long>(c.fired));
      return 2;
    }
    if (rep == 0 || h.wall_s < fan.heap.wall_s) fan.heap = h;
    if (rep == 0 || c.wall_s < fan.cal.wall_s) fan.cal = c;
  }
  std::printf("jittered fan-out (x%zu, 0.5 ms + U(0, 0.2 ms)) at %zu LCs: heap %.0f, "
              "calendar %.0f ev/s, %.2fx\n",
              kFanout, fan.lcs, fan.heap.eps(), fan.cal.eps(),
              fan.cal.eps() / fan.heap.eps());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"benchmark\": \"engine_scale\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"horizon_virtual_s\": " << horizon << ",\n"
        << "  \"repeats\": " << repeats << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"lcs\": " << r.lcs << ", \"events\": " << r.cal.fired
          << ", \"cancels\": " << r.cal.cancels
          << ", \"heap_wall_s\": " << r.heap.wall_s
          << ", \"calendar_wall_s\": " << r.cal.wall_s
          << ", \"heap_events_per_s\": " << r.heap.eps()
          << ", \"calendar_events_per_s\": " << r.cal.eps()
          << ", \"speedup\": " << r.cal.eps() / r.heap.eps() << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"max_lcs\": " << top.lcs
        << ",\n  \"speedup_at_max\": " << speedup
        << ",\n  \"fanout\": {\"lcs\": " << fan.lcs << ", \"fanout\": " << kFanout
        << ", \"jitter_s\": [0.0005, 0.0002], \"events\": " << fan.cal.fired
        << ", \"cancels\": " << fan.cal.cancels
        << ", \"heap_wall_s\": " << fan.heap.wall_s
        << ", \"calendar_wall_s\": " << fan.cal.wall_s
        << ", \"heap_events_per_s\": " << fan.heap.eps()
        << ", \"calendar_events_per_s\": " << fan.cal.eps()
        << ", \"speedup\": " << fan.cal.eps() / fan.heap.eps() << "}\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (min_eps > 0.0 && top.cal.eps() < min_eps) {
    std::fprintf(stderr,
                 "FAIL: calendar engine %.0f events/s at %zu LCs is below the "
                 "floor of %.0f\n",
                 top.cal.eps(), top.lcs, min_eps);
    return 1;
  }
  if (min_eps > 0.0 && fan.cal.eps() < min_eps) {
    std::fprintf(stderr,
                 "FAIL: calendar engine %.0f events/s on the jittered fan-out row "
                 "is below the floor of %.0f\n",
                 fan.cal.eps(), min_eps);
    return 1;
  }

  if (min_monotonicity > 0.0) {
    const Row* prev = nullptr;
    for (const Row& r : rows) {
      if (r.lcs < 1000) continue;  // noise-dominated warm-up row
      const double s = r.cal.eps() / r.heap.eps();
      if (prev != nullptr) {
        const double prev_s = prev->cal.eps() / prev->heap.eps();
        if (s < min_monotonicity * prev_s) {
          std::fprintf(stderr,
                       "FAIL: speedup sagged %.2fx -> %.2fx between %zu and "
                       "%zu LCs (floor: %.2f of the previous row)\n",
                       prev_s, s, prev->lcs, r.lcs, min_monotonicity);
          return 1;
        }
      }
      prev = &r;
    }
    std::printf("monotonicity gate passed (floor %.2fx of previous row)\n",
                min_monotonicity);
  }
  return 0;
}
