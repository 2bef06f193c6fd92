// Experiment E11 — substrate throughput (google-benchmark).
//
// The scalability experiments stand on the discrete-event substrate; this
// bench documents its headroom: raw event throughput, network delivery cost,
// and how much wall time one simulated second of a full Snooze deployment
// costs at paper scale (144 LCs) and at the related-work claim's scale
// (1000+ LCs).

#include <benchmark/benchmark.h>

#include "core/snooze.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

using namespace snooze;

namespace {

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule(static_cast<double>(i) * 1e-6, [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1000)->Arg(100000);

struct NullEndpoint final : net::Endpoint {
  void on_message(const net::Envelope&) override {}
};

void BM_NetworkUnicast(benchmark::State& state) {
  struct Ping final : net::MessageOf<Ping> {
    [[nodiscard]] std::string_view type() const override { return "ping"; }
  };
  for (auto _ : state) {
    sim::Engine engine;
    net::Network network(engine, net::LatencyModel{1e-3, 0.0});
    NullEndpoint sink;
    network.attach(1, &sink);
    auto msg = std::make_shared<Ping>();
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) network.send(2, 1, msg);
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NetworkUnicast)->Arg(10000);

void BM_SimulatedSecond(benchmark::State& state) {
  core::SystemSpec spec;
  spec.entry_points = 2;
  spec.group_managers = 1 + static_cast<std::size_t>(state.range(0)) / 125;
  spec.local_controllers = static_cast<std::size_t>(state.range(0));
  spec.seed = 42;
  core::SnoozeSystem system(spec);
  system.start();
  system.run_until_stable(120.0);
  for (auto _ : state) {
    system.engine().run_until(system.engine().now() + 1.0);
  }
  state.counters["events/sim-s"] = benchmark::Counter(
      static_cast<double>(system.engine().processed_events()) /
      std::max(1.0, system.engine().now()));
}
BENCHMARK(BM_SimulatedSecond)->Arg(144)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
