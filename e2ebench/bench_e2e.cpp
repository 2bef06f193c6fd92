// Full-stack benchmark: host cost per simulated hour of a whole SnoozeSystem
// deployment on three workloads, with per-layer counts and a traced run.
//
//   bench_e2e --workload <e3_paper|fleet_10k|chaos_day> --seed <n>
//             --seconds <s> --trace <0|1> [--quick] [--trace-out <file>]
//
// One process runs one workload on one thread. A repetition builds a fresh
// SnoozeSystem from the seed, stabilizes it, replays the workload's open-loop
// arrival schedule on the virtual clock and advances the engine with
// run_until in fixed virtual-time slices, sampling fleet state between
// slices. Repetitions continue until --seconds of host time are spent (at
// least two). wall_s_per_vhour sums the per-slice minimum over repetitions;
// other host-timed metrics report their median.
//
// The benchmark times with the process's CPU clock and reports CPU times at
// one reference speed: a fixed chunk of its own work (ReferenceKernel) runs
// right after every timed interval (slice, set-up, probe call), and the
// interval is multiplied by the chunk's nominal time over its measured time.
// On a shared host the speed of the machine follows the other tenants' load
// from moment to moment; it moves the chunk and the stack alike, while a
// change to the stack leaves the chunk as it is.
//
// Simulated metrics (every metric that is not a host time) are a pure
// function of the seed: every repetition must reproduce them, and the sim
// trace hash, bit for bit. That is the determinism check. With --trace 1 the
// repetitions alternate between untraced and traced ones; a traced
// repetition records benchmark-side spans around every call into the stack.
// Its fingerprint must equal the untraced one (slicing and tracing are
// passive), and the difference in wall_s_per_vhour is the tracing overhead.
//
// Layer probes that time single calls (ACO/FFD solves, incident analysis,
// span export) run after the measured window, so they never inflate
// wall_s_per_vhour.
//
// Output: a metric table on stdout, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). "attempted"
// counts repetitions and "failed" those whose output checks failed; the exit
// code is non-zero when any check failed.

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/injector.hpp"
#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "consolidation/aco.hpp"
#include "consolidation/greedy.hpp"
#include "core/system.hpp"
#include "obs/health_monitor.hpp"
#include "obs/incident.hpp"
#include "ops/autoscaler.hpp"
#include "ops/upgrade.hpp"
#include "telemetry/export.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/arrival.hpp"

using namespace snooze;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kStabilizeBound = 300.0;  ///< virtual s to form the hierarchy
constexpr double kConvergeBound = 300.0;   ///< final_check reconvergence bound
/// An accepted VM must still be hosted at the end when its lifetime outlasts
/// the window by this much (covers the final check's reconvergence run).
constexpr double kAliveSlack = 600.0;
/// Retained sim-trace records and spans, equal on every workload, so memory
/// stays bounded and the trace hash always covers the newest records.
constexpr std::size_t kTraceCap = 65536;
constexpr std::size_t kSpanCap = 8192;
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 2000;
constexpr int kProbeRepeats = 3;
/// chaos_day replays one fault script for every --seed: the seed moves the
/// arrivals and every random draw of the system, but a per-seed script makes
/// failover counts, and with them energy, hosts on and tail latency, vary
/// between seeds by more than any regression bound could absorb.
constexpr std::uint64_t kFaultScriptSeed = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(const std::vector<double>& values) {
  util::Percentiles p;
  for (const double v : values) p.add(v);
  return p.median();
}

/// Shortest decimal that reads back as exactly `v`.
std::string json_number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// CPU time of the process. The stack runs on one thread, so this is the
/// host time it spent, without the time that thread waited for a core.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- reference speed -------------------------------------------------------------

/// A fixed chunk of work run right after every CPU-timed interval, in three
/// parts like the stack's own mix: branches on pseudo-random bits over an
/// L1-resident table, pow() weights like the packers', and dependent loads
/// around a random cycle through an L2-sized ring. It is the benchmark's own
/// code and does the same work in every chunk and on every commit, so its CPU
/// time moves only with the speed of the machine at that moment: the core's
/// clock, a busy sibling hyperthread and the shared caches, which on a shared
/// host follow the other tenants' load.
class ReferenceKernel {
 public:
  /// CPU-timed metrics are reported at the speed at which a chunk takes this.
  static constexpr double kNominalChunkS = 1.5e-3;

  ReferenceKernel() : ring_(kRingSize) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kRingSize; ++i) ring_[i] = i;
    std::uint64_t s = 0x2545F4914F6CDD1Dull;
    for (std::uint32_t i = kRingSize - 1; i > 0; --i) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(ring_[i], ring_[(s >> 33) % i]);
    }
  }

  /// Run one chunk and return `cpu_s`, the CPU time of the interval that just
  /// ended, at the reference speed: scaled by the chunk's nominal time over
  /// its measured one.
  double at_reference_speed(double cpu_s) { return cpu_s * kNominalChunkS / run_chunk(); }

  [[nodiscard]] std::size_t chunks() const { return chunk_s_.size(); }
  [[nodiscard]] double median_chunk_s() const { return median(chunk_s_); }
  /// Every chunk ended on the same checksum, so every chunk did the same work.
  [[nodiscard]] bool consistent() const { return consistent_; }

 private:
  static constexpr std::uint32_t kBranchOps = 75000;
  static constexpr std::uint32_t kMathOps = 10000;
  static constexpr std::uint32_t kChaseOps = 50000;
  static constexpr std::uint32_t kRingSize = 1u << 16;  // 256 KiB

  double run_chunk() {
    table_.fill(0);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    double weight = 0.0;
    std::uint32_t at = 0;
    const double start = cpu_seconds();
    for (std::uint32_t i = 0; i < kBranchOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& cell = table_[x % table_.size()];
      if (((x >> 33) & 1u) != 0) {
        cell += static_cast<std::uint32_t>(x >> 7);
      } else {
        cell ^= static_cast<std::uint32_t>(x);
      }
      x += cell;
    }
    for (std::uint32_t i = 0; i < kMathOps; ++i) {
      const double tau = 0.5 + 1e-5 * static_cast<double>(i);
      const double eta = 1.0 / (1.0 + 1e-3 * static_cast<double>(i & 1023u));
      weight += std::pow(tau, 1.3) * std::pow(eta, 2.1);
    }
    for (std::uint32_t i = 0; i < kChaseOps; ++i) at = ring_[at];
    chunk_s_.push_back(cpu_seconds() - start);
    const std::uint64_t sum = x ^ std::bit_cast<std::uint64_t>(weight) ^ at;
    if (chunk_s_.size() == 1) checksum_ = sum;
    if (sum != checksum_) consistent_ = false;
    return chunk_s_.back();
  }

  std::array<std::uint32_t, 4096> table_{};
  std::vector<std::uint32_t> ring_;
  std::vector<double> chunk_s_;
  std::uint64_t checksum_ = 0;
  bool consistent_ = true;
};

// --- benchmark-side spans ------------------------------------------------------

/// Spans the benchmark records around its own calls into the stack, on the
/// host clock. Kept in memory and written as Chrome trace JSON at exit.
class SpanRecorder {
 public:
  /// Open a span and return its id (1-based); parent 0 makes it a root.
  std::size_t begin(std::string name, std::size_t parent) {
    spans_.push_back(Span{std::move(name), parent, now_us(), -1.0, {}});
    return spans_.size();
  }
  void end(std::size_t id) { spans_[id - 1].end_us = now_us(); }
  void annotate(std::size_t id, std::string key, double value) {
    spans_[id - 1].args.emplace_back(std::move(key), value);
  }

  /// Chrome trace_event JSON: one complete ("X") event per span, with the
  /// span id, its parent and its annotations under "args".
  [[nodiscard]] std::string chrome_json() const {
    std::string out = "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double end = s.end_us < 0.0 ? s.start_us : s.end_us;
      if (i > 0) out += ",\n";
      out += "{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
             json_number(s.start_us) + ",\"dur\":" + json_number(end - s.start_us) +
             ",\"args\":{\"id\":" + std::to_string(i + 1) +
             ",\"parent\":" + std::to_string(s.parent);
      for (const auto& [key, value] : s.args) {
        out += ",\"" + key + "\":" + json_number(value);
      }
      out += "}}";
    }
    out += "],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent = 0;
    double start_us = 0.0;
    double end_us = -1.0;
    std::vector<std::pair<std::string, double>> args;
  };

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Scoped span; records nothing without a recorder (untraced repetitions).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::size_t parent)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::size_t id_;
};

// --- metrics ---------------------------------------------------------------------

enum class Scope { kEndToEnd, kLayer };

enum class Kind {
  kExact,  ///< simulated: repeats bit for bit per seed
  kHost,   ///< measured on the machine and reported as measured
  kCpu,    ///< CPU time of the stack at the reference speed
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  Scope scope = Scope::kLayer;
  Kind kind = Kind::kExact;
};

struct Metrics {
  std::vector<Metric> items;

  void exact(Scope scope, std::string name, std::string unit, double value) {
    items.push_back({std::move(name), std::move(unit), value, scope, Kind::kExact});
  }
  void host(Scope scope, std::string name, std::string unit, double value) {
    items.push_back({std::move(name), std::move(unit), value, scope, Kind::kHost});
  }
  void cpu(Scope scope, std::string name, std::string unit, double value) {
    items.push_back({std::move(name), std::move(unit), value, scope, Kind::kCpu});
  }
};

// --- workloads -------------------------------------------------------------------

/// One VM request of the open-loop schedule.
struct Arrival {
  double at = 0.0;  ///< virtual seconds after the measured window opens
  core::ResourceVector size;
  double lifetime_s = 0.0;  ///< 0 = runs to the end
  core::TraceSpec trace;
};

struct Workload {
  std::string name;
  core::SystemSpec spec;
  double window_s = 0.0;  ///< measured virtual time
  double slice_s = 0.0;   ///< run_until step; fleet state is sampled between
  double checker_period = 0.5;
  std::size_t min_submissions = 0;
  /// Chaos schedule, health monitor, autoscaler and one rolling upgrade.
  bool ops = false;
  double fault_rate = 0.0;  ///< chaos injections per virtual second
  std::vector<Arrival> arrivals;
};

/// `n` arrival times of a Poisson process with intensity `rate` on
/// [0, horizon), conditioned on its count: i.i.d. draws from the normalized
/// intensity (thinning against `peak`), sorted. Fixing the count keeps the
/// amount of work equal across seeds while the seed still moves every
/// arrival.
std::vector<double> poisson_arrivals(const workload::RateFn& rate, double peak,
                                     double horizon, std::size_t n, util::Rng& rng) {
  std::vector<double> times;
  times.reserve(n);
  while (times.size() < n) {
    const double t = rng.uniform(0.0, horizon);
    if (rng.uniform(0.0, peak) < rate(t)) times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

core::TraceSpec sinusoid(util::Rng& rng) {
  core::TraceSpec t;
  t.kind = core::TraceSpec::Kind::kSinusoidal;
  t.a = 0.55;
  t.b = 0.3;
  t.c = 3600.0;
  t.d = rng.uniform(0.0, 3600.0);
  return t;
}

/// The paper's §II.F point: 144 LCs, 4 GMs + GL, 2 EPs, 500 VMs submitted at
/// start, then Poisson churn of finite-lifetime VMs; energy savings and
/// periodic ACO reconfiguration on, no faults.
Workload e3_paper(std::uint64_t seed, bool quick) {
  Workload w;
  w.name = "e3_paper";
  w.spec.entry_points = 2;
  w.spec.group_managers = quick ? 3 : 5;
  w.spec.local_controllers = quick ? 24 : 144;
  w.spec.seed = seed;
  w.spec.config.energy_savings = true;
  w.spec.config.consolidation = core::ConsolidationKind::kAco;
  w.spec.config.reconfiguration_period = 300.0;
  w.window_s = quick ? 900.0 : 3600.0;
  w.slice_s = 60.0;
  w.min_submissions = quick ? 0 : 1000;

  util::Rng rng(seed ^ 0xE3E3E3E3E3E3E3E3ull);
  const std::size_t initial = quick ? 60 : 500;
  for (std::size_t i = 0; i < initial; ++i) {
    w.arrivals.push_back(
        {0.1 * static_cast<double>(i), {0.125, 0.125, 0.125}, 0.0, sinusoid(rng)});
  }
  // Churn after the initial burst, 0.2 VMs/s of mixed sizes living 10-30
  // minutes; it stops 300 s before the window closes so every submission
  // (retries included) resolves inside the window.
  const double churn_start = 60.0;
  const double churn_span = w.window_s - 300.0 - churn_start;
  const auto churn = static_cast<std::size_t>(0.2 * churn_span);
  for (const double t :
       poisson_arrivals(workload::constant_rate(1.0), 1.0, churn_span, churn, rng)) {
    Arrival a;
    a.at = churn_start + t;
    a.size = {rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)};
    a.lifetime_s = rng.uniform(600.0, 1800.0);
    a.trace = sinusoid(rng);
    w.arrivals.push_back(a);
  }
  return w;
}

/// 10,000 LCs, 100 GMs + GL, 2 EPs in a fault-free steady state of
/// heartbeats and monitoring, with a Poisson stream of long-lived VMs.
Workload fleet_10k(std::uint64_t seed, bool quick) {
  Workload w;
  w.name = "fleet_10k";
  w.spec.entry_points = 2;
  w.spec.group_managers = quick ? 6 : 101;
  w.spec.local_controllers = quick ? 300 : 10000;
  w.spec.seed = seed;
  w.window_s = 40.0;
  w.slice_s = 5.0;
  // The checker scans every LC per sample; at 10k LCs a 0.5 s cadence would
  // be a visible share of the run, so it samples every 5 s here.
  w.checker_period = 5.0;
  w.min_submissions = quick ? 0 : 1000;

  core::TraceSpec steady;
  steady.kind = core::TraceSpec::Kind::kConstant;
  steady.a = 0.6;
  util::Rng rng(seed ^ 0xF1EE7F1EE7F1EE7Full);
  const std::size_t vms = quick ? 120 : 1200;  // 40 VMs/s over 30 s at full size
  for (const double t :
       poisson_arrivals(workload::constant_rate(1.0), 1.0, 30.0, vms, rng)) {
    w.arrivals.push_back({t, {0.125, 0.125, 0.125}, 0.0, steady});
  }
  return w;
}

/// The soak shape: 3 GMs and 16 LCs for a virtual day of diurnal arrivals
/// plus three flash crowds, under a fault script (kFaultScriptSeed), the
/// autoscaler, one rolling upgrade and the health monitor.
Workload chaos_day(std::uint64_t seed, bool quick) {
  Workload w;
  w.name = "chaos_day";
  w.spec.entry_points = 2;
  w.spec.group_managers = 3;
  w.spec.local_controllers = 16;
  w.spec.seed = seed;
  // Chaos injects failovers near the default 9.5 s MTTR budget and the SLI is
  // a cumulative mean, so one bruised episode would latch the alert (and
  // pause the upgrade) for the rest of the day; the soak's relaxed budget.
  w.spec.config.slo.failover_mttr_max_s = 15.0;
  w.window_s = (quick ? 2.0 : 24.0) * 3600.0;
  w.slice_s = 600.0;
  w.ops = true;
  w.fault_rate = quick ? 0.002 : 0.0005;

  // Long-lived pets, registered with the exactly-once check for the whole day.
  for (std::size_t i = 0; i < 8; ++i) {
    w.arrivals.push_back({1.0 + static_cast<double>(i), {0.1, 0.1, 0.1}, 0.0, {}});
  }
  // Cattle: non-homogeneous Poisson over two diurnal cycles with three flash
  // crowds, each VM living 1200 s; as many as the rate integrates to.
  const double horizon = w.window_s;
  const workload::RateFn rate = workload::with_flash_crowds(
      workload::diurnal_rate(0.02, 0.015, horizon / 2.0),
      {{0.25 * horizon, 0.04, 600.0},
       {0.55 * horizon, 0.04, 600.0},
       {0.80 * horizon, 0.04, 600.0}});
  const auto cattle = static_cast<std::size_t>(0.02 * horizon + 3 * 0.04 * 600.0);
  util::Rng rng(seed ^ 0xC4A05C4A05C4A05Cull);
  for (const double t : poisson_arrivals(rate, 0.08, horizon - 300.0, cattle, rng)) {
    w.arrivals.push_back({t, {0.15, 0.15, 0.15}, 1200.0, {}});
  }
  return w;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                      bool quick) {
  if (name == "e3_paper") return e3_paper(seed, quick);
  if (name == "fleet_10k") return fleet_10k(seed, quick);
  if (name == "chaos_day") return chaos_day(seed, quick);
  return std::nullopt;
}

// --- fleet probes ------------------------------------------------------------------

std::size_t hosts_on(core::SnoozeSystem& sys) {
  std::size_t n = 0;
  for (const auto& lc : sys.local_controllers()) {
    if (lc->alive() && lc->power_state() == energy::PowerState::kOn) ++n;
  }
  return n;
}

/// Process high-water RSS (VmHWM) in MiB; 0 when /proc is unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

/// One packing instance per GM, snapshotted from the fleet as that GM's
/// reconfiguration would see it: its powered-on LCs and their VMs.
std::vector<consolidation::Instance> consolidation_instances(core::SnoozeSystem& sys) {
  std::map<net::Address, consolidation::Instance> by_gm;
  for (const auto& lc : sys.local_controllers()) {
    if (!lc->alive() || !lc->assigned() ||
        lc->power_state() != energy::PowerState::kOn) {
      continue;
    }
    consolidation::Instance& inst = by_gm[lc->gm()];
    inst.host_capacities.push_back(lc->host().capacity());
    for (const auto& [id, vm] : lc->host().vms()) {
      inst.vm_demands.push_back(vm->spec().requested);
    }
  }
  std::vector<consolidation::Instance> out;
  for (auto& [gm, inst] : by_gm) {
    if (!inst.vm_demands.empty()) out.push_back(std::move(inst));
  }
  return out;
}

/// Median CPU milliseconds at the reference speed of `repeats` calls of `fn`.
template <typename Fn>
double time_ms(ReferenceKernel& ref, int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const double start = cpu_seconds();
    fn();
    ms.push_back(ref.at_reference_speed(cpu_seconds() - start) * 1000.0);
  }
  return median(ms);
}

// --- one repetition ------------------------------------------------------------------

struct RepResult {
  Metrics metrics;
  std::vector<double> slice_s;  ///< CPU time of each run_until slice at reference speed
  double window_wall_s = 0.0;   ///< wall time of the slices, for the report
  std::uint64_t fingerprint = 0;
  std::size_t attempted = 0;        ///< VM submissions scheduled
  std::size_t latency_samples = 0;  ///< accepted submissions
  std::vector<std::string> notes;   ///< offline probe summaries
  std::vector<std::string> failures;
};

/// Construct, start and stabilize a system: the setup_s interval.
std::unique_ptr<core::SnoozeSystem> build(const Workload& w, SpanRecorder* rec,
                                          std::size_t parent, bool* stable) {
  std::unique_ptr<core::SnoozeSystem> sys;
  {
    ScopedSpan span(rec, "setup.construct", parent);
    sys = std::make_unique<core::SnoozeSystem>(w.spec);
  }
  sys->trace().set_max_records(kTraceCap);
  sys->telemetry().spans().set_max_spans(kSpanCap);
  {
    ScopedSpan span(rec, "setup.start", parent);
    sys->start();
  }
  ScopedSpan span(rec, "setup.stabilize", parent);
  *stable = sys->run_until_stable(kStabilizeBound);
  return sys;
}

/// One set-up's CPU time at the reference speed.
double setup_only(const Workload& w, ReferenceKernel& ref) {
  bool stable = false;
  const double start = cpu_seconds();
  const auto sys = build(w, nullptr, 0, &stable);
  return ref.at_reference_speed(cpu_seconds() - start);
}

struct SubmitLog {
  std::size_t accepted = 0;
  std::size_t failed = 0;
  util::Percentiles latency;  ///< accepted submissions, virtual s
};

RepResult run_rep(const Workload& w, ReferenceKernel& ref, SpanRecorder* rec, bool probes) {
  RepResult r;
  Metrics& m = r.metrics;
  const auto fail = [&r](std::string what) { r.failures.push_back(std::move(what)); };
  ScopedSpan rep_span(rec, "rep", 0);

  bool stable = false;
  const double setup_start = cpu_seconds();
  const std::unique_ptr<core::SnoozeSystem> owner = build(w, rec, rep_span.id(), &stable);
  const double setup_s = ref.at_reference_speed(cpu_seconds() - setup_start);
  core::SnoozeSystem& sys = *owner;
  sim::Engine& engine = sys.engine();
  if (!stable) fail("hierarchy did not stabilize");
  const double t0 = engine.now();
  const double t_end = t0 + w.window_s;

  // Workload agents, constructed in the same order every repetition.
  chaos::InvariantChecker::Options checker_options;
  checker_options.sample_period = w.checker_period;
  chaos::InvariantChecker checker(sys, checker_options);
  checker.start();
  std::unique_ptr<chaos::ChaosInjector> injector;
  std::unique_ptr<obs::HealthMonitor> monitor;
  std::unique_ptr<ops::Autoscaler> autoscaler;
  std::unique_ptr<ops::RollingUpgrade> upgrade;
  if (w.ops) {
    chaos::ChaosSpec chaos_spec;
    chaos_spec.duration = w.window_s;
    chaos_spec.fault_rate = w.fault_rate;
    // Gray faults as latency bursts on links. Fail-slow and CPU-steal faults
    // end in quarantines that suspend 1-2 of the 16 LCs for a while, which
    // swings hosts_on_mean between seeds by more than its bound.
    chaos_spec.weight_flaky = 1.0;
    const chaos::Topology topology{w.spec.group_managers, w.spec.local_controllers,
                                   w.spec.entry_points};
    injector = std::make_unique<chaos::ChaosInjector>(
        sys, chaos::generate_schedule(chaos_spec, topology, kFaultScriptSeed), &checker);
    injector->start();
    monitor = std::make_unique<obs::HealthMonitor>(sys);
    monitor->start();
    ops::AutoscalerConfig as_cfg;  // the soak's autoscaler
    as_cfg.check_period = 15.0;
    as_cfg.scale_up_threshold = 0.55;
    as_cfg.scale_down_threshold = 0.25;
    as_cfg.up_stable_checks = 2;
    as_cfg.down_stable_checks = 4;
    as_cfg.cooldown = 120.0;
    as_cfg.min_on_lcs = 6;
    as_cfg.min_headroom_lcs = 2;
    as_cfg.max_step = 4;
    autoscaler = std::make_unique<ops::Autoscaler>(sys, as_cfg);
    autoscaler->start();
    // The soak's upgrade, in the demand trough, except that a node that will
    // not empty waits up to an hour instead of being force-restarted with its
    // VMs, which would terminate them and fail the exactly-once check.
    ops::UpgradeConfig up_cfg;
    up_cfg.wave_size = 2;
    up_cfg.drain_timeout = 3600.0;
    upgrade = std::make_unique<ops::RollingUpgrade>(sys, monitor.get(), up_cfg);
    ops::RollingUpgrade* up = upgrade.get();
    engine.schedule(0.30 * w.window_s, [up] { up->start(); });
  }

  SubmitLog log;
  for (const Arrival& a : w.arrivals) {
    engine.schedule(a.at, [&sys, &checker, &log, a, t_end] {
      const core::VmDescriptor vm = sys.make_vm(a.size, a.lifetime_s, a.trace);
      const core::VmId id = vm.id;
      sys.client().submit(vm, [&sys, &checker, &log, id, lifetime = a.lifetime_s,
                               t_end](bool ok, net::Address, sim::Time latency) {
        if (!ok) {
          ++log.failed;
          return;
        }
        ++log.accepted;
        log.latency.add(latency);
        if (lifetime == 0.0 || sys.engine().now() + lifetime > t_end + kAliveSlack) {
          checker.note_accepted(id);
        }
      });
    });
  }

  // --- measured window: run_until in virtual-time slices ----------------------
  const std::uint64_t msgs0 = sys.network().stats().messages_sent;
  const double energy0 = sys.total_energy();
  const double work0 = sys.total_work();
  double window_cpu = 0.0;
  double hosts_on_integral = 0.0;
  {
    ScopedSpan window(rec, "run.window", rep_span.id());
    double from = t0;
    while (from < t_end) {
      const double until = std::min(t_end, from + w.slice_s);
      const std::uint64_t fired = engine.stats().fired;
      const std::uint64_t sent = sys.network().stats().messages_sent;
      const std::uint64_t submitted = sys.client().submitted();
      const std::size_t slice = rec != nullptr ? rec->begin("run.slice", window.id()) : 0;
      const auto start = Clock::now();
      const double cpu_start = cpu_seconds();
      engine.run_until(until);
      const double cpu_s = cpu_seconds() - cpu_start;
      r.window_wall_s += seconds_since(start);
      if (rec != nullptr) rec->end(slice);
      r.slice_s.push_back(ref.at_reference_speed(cpu_s));
      window_cpu += r.slice_s.back();
      if (rec != nullptr) {
        rec->annotate(slice, "events_fired",
                      static_cast<double>(engine.stats().fired - fired));
        rec->annotate(slice, "messages_sent",
                      static_cast<double>(sys.network().stats().messages_sent - sent));
        rec->annotate(slice, "submissions",
                      static_cast<double>(sys.client().submitted() - submitted));
      }
      hosts_on_integral += static_cast<double>(hosts_on(sys)) * (until - from);
      from = until;
    }
  }

  // --- end-to-end metrics at window end ------------------------------------------
  const telemetry::MetricsRegistry& reg = sys.telemetry().metrics();
  const auto counter = [&reg](std::string_view name) {
    const telemetry::Counter* c = reg.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const net::TrafficStats traffic = sys.network().stats();
  const double vm_hours = (sys.total_work() - work0) / 3600.0;
  const double energy_j = sys.total_energy() - energy0;
  r.attempted = w.arrivals.size();
  r.latency_samples = log.latency.count();
  if (monitor) monitor->sample_now();
  const double mttr = monitor ? monitor->failover_mttr() : 0.0;

  m.cpu(Scope::kEndToEnd, "wall_s_per_vhour", "s/vh", window_cpu / (w.window_s / 3600.0));
  m.cpu(Scope::kEndToEnd, "setup_s", "s", setup_s);
  m.exact(Scope::kEndToEnd, "submit_p50_vs", "vs", log.latency.percentile(0.50));
  m.exact(Scope::kEndToEnd, "ctrl_msgs_per_lc_s", "msgs/LC/vs",
          static_cast<double>(traffic.messages_sent - msgs0) /
              (static_cast<double>(w.spec.local_controllers) * w.window_s));
  // Simulated outcomes whose seed-to-seed spread on chaos_day (failover
  // tails, autoscaler steps of one LC in 16) is wider than a regression bound
  // can express, or that are 0 on fault-free workloads. A change meant for
  // speed must leave them bit-identical instead.
  m.exact(Scope::kLayer, "submit_p99_vs", "vs", log.latency.percentile(0.99));
  m.exact(Scope::kLayer, "energy_kj_per_vm_hour", "kJ/VMh",
          ratio(energy_j / 1000.0, vm_hours));
  m.exact(Scope::kLayer, "hosts_on_mean", "LCs", hosts_on_integral / w.window_s);
  m.exact(Scope::kLayer, "submit_fail_ratio", "ratio",
          ratio(static_cast<double>(log.failed), static_cast<double>(r.attempted)));
  m.exact(Scope::kLayer, "failover_mttr_vs", "vs", std::isnan(mttr) ? 0.0 : mttr);

  // --- per-layer counters (cumulative since construction) -------------------------
  const sim::Engine::Stats& es = engine.stats();
  m.exact(Scope::kLayer, "sim.events_fired", "count", static_cast<double>(es.fired));
  m.exact(Scope::kLayer, "sim.events_cancelled", "count",
          static_cast<double>(es.cancelled));
  m.exact(Scope::kLayer, "sim.peak_pending", "count",
          static_cast<double>(es.peak_pending));
  m.host(Scope::kLayer, "sim.run_wall_s", "s", es.run_wall_seconds);
  m.host(Scope::kLayer, "sim.events_per_s", "1/s", engine.events_per_second());

  m.exact(Scope::kLayer, "net.messages_sent", "count",
          static_cast<double>(traffic.messages_sent));
  m.exact(Scope::kLayer, "net.bytes_sent", "B", static_cast<double>(traffic.bytes_sent));
  m.exact(Scope::kLayer, "net.messages_dropped", "count",
          static_cast<double>(traffic.messages_dropped));
  const double calls = counter("rpc.calls");
  const double timeouts = counter("rpc.timeouts");
  m.exact(Scope::kLayer, "rpc.calls", "count", calls);
  m.exact(Scope::kLayer, "rpc.timeouts", "count", timeouts);
  m.exact(Scope::kLayer, "rpc.retries", "count", counter("rpc.retries"));
  m.exact(Scope::kLayer, "rpc.hedges_won", "count", counter("rpc.hedges_won"));
  m.exact(Scope::kLayer, "rpc.useful_ratio", "ratio", ratio(calls - timeouts, calls));
  const telemetry::Histogram* rpc_latency = reg.find_histogram("rpc.latency");
  m.exact(Scope::kLayer, "rpc.latency_p99_vs", "vs",
          rpc_latency != nullptr ? rpc_latency->percentile(0.99) : 0.0);

  m.exact(Scope::kLayer, "coord.requests", "count", counter("coord.requests"));
  m.exact(Scope::kLayer, "coord.sessions_expired", "count",
          counter("coord.sessions_expired"));
  m.exact(Scope::kLayer, "coord.watch_events", "count", counter("coord.watch_events"));
  m.exact(Scope::kLayer, "gm.elections_won", "count", counter("gm.elections_won"));

  m.exact(Scope::kLayer, "client.submissions", "count", counter("client.submissions"));
  m.exact(Scope::kLayer, "client.failures", "count", counter("client.failures"));
  const double dispatches = counter("gl.dispatches");
  m.exact(Scope::kLayer, "gl.dispatches", "count", dispatches);
  m.exact(Scope::kLayer, "gl.dispatch_ok_ratio", "ratio",
          ratio(dispatches - counter("gl.dispatch_failures"), dispatches));
  const double placed = counter("gm.placements_ok");
  m.exact(Scope::kLayer, "gm.placements_ok", "count", placed);
  m.exact(Scope::kLayer, "gm.placement_ok_ratio", "ratio",
          ratio(placed, placed + counter("gm.placements_failed")));
  m.exact(Scope::kLayer, "gm.summary_deltas", "count", counter("gm.summary_deltas"));
  m.exact(Scope::kLayer, "gm.summary_snapshots", "count",
          counter("gm.summary_snapshots"));
  m.exact(Scope::kLayer, "lc.heartbeats", "count", counter("lc.heartbeats"));
  m.exact(Scope::kLayer, "lc.monitor_reports", "count", counter("lc.monitor_reports"));

  const double migrated = counter("gm.migrations_completed");
  m.exact(Scope::kLayer, "gm.reconfigurations", "count", counter("gm.reconfigurations"));
  m.exact(Scope::kLayer, "gm.migrations_completed", "count", migrated);
  m.exact(Scope::kLayer, "consolidation.migration_ok_ratio", "ratio",
          ratio(migrated, counter("gm.migrations_commanded")));

  m.exact(Scope::kLayer, "gm.suspends", "count", counter("gm.suspends"));
  m.exact(Scope::kLayer, "gm.wakeups", "count", counter("gm.wakeups"));
  m.exact(Scope::kLayer, "lc.migrations_failed", "count", counter("lc.migrations_failed"));
  const auto by_state = sys.total_energy_by_state();
  const auto kj_of = [&by_state](energy::PowerClass c) {
    return by_state[static_cast<std::size_t>(c)] / 1000.0;
  };
  m.exact(Scope::kLayer, "energy.on_kj", "kJ", kj_of(energy::PowerClass::kOn));
  m.exact(Scope::kLayer, "energy.suspended_kj", "kJ", kj_of(energy::PowerClass::kSuspended));
  m.exact(Scope::kLayer, "energy.off_kj", "kJ", kj_of(energy::PowerClass::kOff));

  m.exact(Scope::kLayer, "telemetry.spans_retained", "count",
          static_cast<double>(sys.telemetry().spans().size()));
  m.exact(Scope::kLayer, "telemetry.spans_dropped", "count",
          static_cast<double>(sys.telemetry().spans().dropped()));
  m.exact(Scope::kLayer, "obs.health_samples", "count",
          monitor ? static_cast<double>(monitor->store().row_count() +
                                        monitor->store().dropped())
                  : 0.0);
  m.exact(Scope::kLayer, "chaos.faults_injected", "count",
          injector ? static_cast<double>(injector->faults_injected()) : 0.0);
  m.exact(Scope::kLayer, "ops.scale_ups", "count",
          autoscaler ? static_cast<double>(autoscaler->scale_ups()) : 0.0);
  m.exact(Scope::kLayer, "ops.scale_downs", "count",
          autoscaler ? static_cast<double>(autoscaler->scale_downs()) : 0.0);
  m.exact(Scope::kLayer, "ops.upgrade_waves", "count",
          upgrade ? static_cast<double>(upgrade->waves_completed()) : 0.0);
  if (upgrade) {
    r.notes.push_back("upgrade: " + std::to_string(upgrade->nodes_upgraded()) +
                      " nodes, " + std::to_string(upgrade->forced_drains()) +
                      " forced drains, " + std::to_string(upgrade->pauses()) + " pauses");
  }

  // --- output checks ------------------------------------------------------------------
  core::Client& client = sys.client();
  if (log.accepted + log.failed != r.attempted) {
    fail("unresolved submissions at window end: " +
         std::to_string(r.attempted - log.accepted - log.failed) + " of " +
         std::to_string(r.attempted));
  }
  if (client.submitted() != r.attempted || client.succeeded() != log.accepted ||
      client.failed() != log.failed) {
    fail("client counters disagree with the submissions the benchmark made");
  }
  if (r.attempted < w.min_submissions) {
    fail("workload submitted " + std::to_string(r.attempted) + " VMs, fewer than " +
         std::to_string(w.min_submissions));
  }
  if (!(vm_hours > 0.0)) fail("no VM-hours of work in the window");
  double by_state_sum = 0.0;
  for (const double j : by_state) by_state_sum += j;
  const double total_energy = sys.total_energy();
  if (std::fabs(by_state_sum - total_energy) > 1e-9 * std::max(1.0, total_energy)) {
    fail("total_energy_by_state() sums to " + std::to_string(by_state_sum) +
         " J, total_energy() is " + std::to_string(total_energy) + " J");
  }
  for (const Metric& metric : m.items) {
    if (!std::isfinite(metric.value)) fail("metric " + metric.name + " is not finite");
  }

  // Liveness and exactly-once hosting after the last fault heals (untimed).
  if (injector) injector->heal_all_remaining();
  if (autoscaler) autoscaler->stop();
  if (!checker.final_check(kConvergeBound)) fail("hierarchy did not reconverge");
  m.exact(Scope::kLayer, "chaos.invariant_violations", "count",
          static_cast<double>(checker.violations().size()));
  for (const std::string& v : checker.violations()) fail("invariant: " + v);

  // Fingerprint: sim trace + traffic + every simulated metric.
  std::uint64_t h = sys.trace().hash();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  const net::TrafficStats& final_traffic = sys.network().stats();
  mix(final_traffic.messages_sent);
  mix(final_traffic.messages_delivered);
  mix(final_traffic.messages_dropped);
  mix(final_traffic.bytes_sent);
  for (const Metric& metric : m.items) {
    if (metric.kind == Kind::kExact) mix(std::bit_cast<std::uint64_t>(metric.value));
  }
  r.fingerprint = h;

  // --- offline layer probes, after the measured window ---------------------------------
  if (!probes) return r;
  ScopedSpan offline(rec, "offline", rep_span.id());
  double aco_ms = 0.0;
  double ffd_ms = 0.0;
  const core::SnoozeConfig& cfg = w.spec.config;
  if (cfg.consolidation != core::ConsolidationKind::kNone) {
    const std::vector<consolidation::Instance> instances = consolidation_instances(sys);
    consolidation::AcoParams params;
    params.ants = cfg.aco_ants;
    params.cycles = cfg.aco_cycles;
    params.seed = w.spec.seed;
    std::size_t vms = 0;
    std::size_t aco_hosts = 0;
    std::size_t ffd_hosts = 0;
    {
      ScopedSpan span(rec, "offline.solve_aco", offline.id());
      aco_ms = time_ms(ref, kProbeRepeats, [&] {
        aco_hosts = 0;
        for (const auto& inst : instances) {
          aco_hosts += consolidation::AcoConsolidation(params).solve(inst).hosts_used;
        }
      });
    }
    {
      ScopedSpan span(rec, "offline.solve_ffd", offline.id());
      ffd_ms = time_ms(ref, kProbeRepeats, [&] {
        ffd_hosts = 0;
        for (const auto& inst : instances) {
          ffd_hosts += consolidation::first_fit_decreasing(inst).hosts_used();
        }
      });
    }
    for (const auto& inst : instances) vms += inst.vm_count();
    r.notes.push_back("consolidation probe: " + std::to_string(instances.size()) +
                      " GM instances, " + std::to_string(vms) + " VMs; ACO packs onto " +
                      std::to_string(aco_hosts) + " hosts, FFD onto " +
                      std::to_string(ffd_hosts));
  }
  m.cpu(Scope::kLayer, "consolidation.aco_solve_ms", "ms", aco_ms);
  m.cpu(Scope::kLayer, "consolidation.ffd_solve_ms", "ms", ffd_ms);

  obs::AddressNames names;
  for (const auto& gm : sys.group_managers()) names[gm->address()] = gm->name();
  for (const auto& lc : sys.local_controllers()) names[lc->address()] = lc->name();
  std::size_t episodes = 0;
  double incident_ms = 0.0;
  {
    ScopedSpan span(rec, "offline.incidents", offline.id());
    incident_ms = time_ms(ref, kProbeRepeats, [&] {
      episodes = obs::analyze_incidents(sys.trace().records(), &sys.telemetry().spans(),
                                        engine.now(), names)
                     .episodes.size();
    });
  }
  m.cpu(Scope::kLayer, "obs.incident_analyze_ms", "ms", incident_ms);
  std::size_t export_bytes = 0;
  double export_ms = 0.0;
  {
    ScopedSpan span(rec, "offline.export", offline.id());
    export_ms = time_ms(ref, kProbeRepeats, [&] {
      export_bytes =
          telemetry::chrome_trace_json(sys.telemetry().spans(), engine.now()).size();
    });
  }
  m.cpu(Scope::kLayer, "telemetry.export_ms", "ms", export_ms);
  r.notes.push_back("incident probe: " + std::to_string(episodes) + " episodes over " +
                    std::to_string(sys.trace().records().size()) +
                    " retained trace records; span export: " +
                    std::to_string(export_bytes) + " bytes");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string name = args.get("workload", "");
  const std::int64_t seed_arg = args.get_int("seed", -1);
  const double budget = args.get_double("seconds", 0.0);
  const std::int64_t trace_arg = args.get_int("trace", 0);
  const bool quick = args.has("quick");
  const std::string trace_out = args.get("trace-out", "");
  if (seed_arg < 0 || !(budget > 0.0) || (trace_arg != 0 && trace_arg != 1)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <e3_paper|fleet_10k|chaos_day> --seed <n >= 0> "
                 "--seconds <s > 0> --trace <0|1> [--quick] [--trace-out <file>]\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool traced = trace_arg == 1;
  const std::optional<Workload> workload = make_workload(name, seed, quick);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s' (e3_paper, fleet_10k, chaos_day)\n",
                 name.c_str());
    return 2;
  }
  const Workload& w = *workload;
  std::printf("workload %s%s, seed %llu: %zu EPs, %zu GMs, %zu LCs, %.0f virtual s in "
              "%.0f s slices, %zu VM arrivals; %s, %.0f host s budget\n",
              w.name.c_str(), quick ? " (quick)" : "", static_cast<unsigned long long>(seed),
              w.spec.entry_points, w.spec.group_managers, w.spec.local_controllers,
              w.window_s, w.slice_s, w.arrivals.size(),
              traced ? "traced + untraced repetitions" : "untraced repetitions", budget);
  std::fflush(stdout);

  // Repeat until the budget is spent, at least two repetitions; stop early
  // when one more repetition would overrun it.
  SpanRecorder recorder;
  ReferenceKernel ref;
  std::vector<RepResult> plain;
  std::vector<RepResult> with_spans;
  const auto run_start = Clock::now();
  const auto more = [&](std::size_t done) {
    const double spent = seconds_since(run_start);
    return spent + spent / static_cast<double>(done) <= budget;
  };
  // Each repetition hands its freed heap back to the system, so peak RSS is
  // one repetition's peak, not a function of how many fitted in the budget.
  const auto rep = [&w, &ref](SpanRecorder* rec, bool probes) {
    RepResult r = run_rep(w, ref, rec, probes);
    malloc_trim(0);
    return r;
  };
  if (traced) {
    do {
      plain.push_back(rep(nullptr, false));
      with_spans.push_back(rep(&recorder, with_spans.empty()));
    } while (more(plain.size()));
  } else {
    do {
      plain.push_back(rep(nullptr, plain.empty()));
    } while (plain.size() < 2 || more(plain.size()));
  }

  // --- aggregate ----------------------------------------------------------------------
  const std::vector<RepResult>& basis = traced ? with_spans : plain;
  const auto values_of = [](const std::vector<RepResult>& reps, const std::string& metric) {
    std::vector<double> values;
    for (const RepResult& rep : reps) {
      for (const Metric& m : rep.metrics.items) {
        if (m.name == metric) values.push_back(m.value);
      }
    }
    return values;
  };
  // Small set-ups are repeated until a second of them is timed. They reuse
  // the heap the previous one freed, so they time the stack's work and not
  // the kernel faulting fresh pages in.
  std::vector<double> setups = values_of(plain, "setup_s");
  double setup_total = 0.0;
  for (const double s : setups) setup_total += s;
  while (!traced && (setups.size() < kMinSetupSamples ||
                     (setup_total < 1.0 && setups.size() < kMaxSetupSamples))) {
    setups.push_back(setup_only(w, ref));
    setup_total += setups.back();
  }
  // CPU time of the window at the reference speed: per slice, the minimum
  // over repetitions, summed. Every repetition does the same work, and
  // foreign load only ever slows a slice; it lands in some slices of most
  // repetitions, and the minimum keeps the one that ran undisturbed.
  const auto wall_per_vhour = [&w](const std::vector<RepResult>& reps) {
    double total = 0.0;
    for (std::size_t k = 0; k < reps.front().slice_s.size(); ++k) {
      double fastest = reps.front().slice_s[k];
      for (const RepResult& rep : reps) fastest = std::min(fastest, rep.slice_s[k]);
      total += fastest;
    }
    return total / (w.window_s / 3600.0);
  };
  std::vector<Metric> report;
  for (const Metric& m : basis.front().metrics.items) {
    Metric out = m;
    if (m.kind != Kind::kExact) out.value = median(values_of(basis, m.name));
    if (m.name == "setup_s") out.value = median(setups);
    if (m.name == "wall_s_per_vhour") out.value = wall_per_vhour(basis);
    report.push_back(out);
  }
  const double rss = peak_rss_mb();
  report.push_back({"peak_rss_mb", "MiB", rss, Scope::kEndToEnd, Kind::kHost});
  if (traced) {
    report.push_back({"trace.overhead_s_per_vhour", "s/vh",
                      wall_per_vhour(with_spans) - wall_per_vhour(plain), Scope::kLayer,
                      Kind::kCpu});
  }

  // --- checks -------------------------------------------------------------------------
  std::set<std::string> failures;
  std::size_t failed_reps = 0;
  const std::uint64_t reference = plain.front().fingerprint;
  bool deterministic = true;
  for (const auto* reps : {&plain, &with_spans}) {
    for (const RepResult& rep : *reps) {
      if (!rep.failures.empty()) ++failed_reps;
      failures.insert(rep.failures.begin(), rep.failures.end());
      if (rep.fingerprint != reference) deterministic = false;
    }
  }
  if (!deterministic) {
    failures.insert(traced ? "traced and untraced repetitions of one seed differ"
                           : "repetitions of one seed differ");
  }
  if (!(rss > 0.0)) failures.insert("peak RSS unavailable");
  if (!ref.consistent()) failures.insert("reference chunks did different work");
  const bool correct = failures.empty();

  // --- report ---------------------------------------------------------------------------
  util::Table table({"metric", "value", "unit", "scope", "kind"});
  for (const Metric& m : report) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", m.value);
    table.add_row({m.name, value, m.unit,
                   m.scope == Scope::kEndToEnd ? "end_to_end" : "per_layer",
                   m.kind == Kind::kExact ? "exact" : m.kind == Kind::kHost ? "host" : "cpu"});
  }
  table.print();
  const RepResult& first = basis.front();
  std::printf("submit latency: %zu accepted of %zu submitted (%zu samples beyond p99)\n",
              first.latency_samples, first.attempted, first.latency_samples / 100);
  for (const std::string& note : first.notes) std::printf("%s\n", note.c_str());
  std::printf("reference speed: %zu chunks, median %.6g ms (nominal %.6g ms)\n", ref.chunks(),
              ref.median_chunk_s() * 1000.0, ReferenceKernel::kNominalChunkS * 1000.0);
  std::printf("wall_s_per_vhour by repetition (CPU at reference speed / wall clock):");
  for (const RepResult& rep : basis) {
    double cpu = 0.0;
    for (const double s : rep.slice_s) cpu += s;
    std::printf(" %.6g/%.6g", cpu / (w.window_s / 3600.0),
                rep.window_wall_s / (w.window_s / 3600.0));
  }
  std::printf("\n");
  std::printf("determinism: %zu untraced + %zu traced repetitions, fingerprint %016llx: %s\n",
              plain.size(), with_spans.size(), static_cast<unsigned long long>(reference),
              deterministic ? "identical" : "DIFFERENT");
  for (const std::string& f : failures) std::printf("check failed: %s\n", f.c_str());
  if (traced && !trace_out.empty()) {
    std::ofstream out(trace_out);
    out << recorder.chrome_json();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("benchmark spans written to %s\n", trace_out.c_str());
  }

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(plain.size() + with_spans.size()) +
                     ", \"failed\": " + std::to_string(failed_reps) + ", \"metrics\": {";
  const Scope wanted = traced ? Scope::kLayer : Scope::kEndToEnd;
  bool first_metric = true;
  for (const Metric& m : report) {
    if (m.scope != wanted) continue;
    json += (first_metric ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first_metric = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
