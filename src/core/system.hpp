// SnoozeSystem: builds and wires a complete simulated Snooze deployment —
// coordination service, Entry Points, Group Managers, Local Controllers and
// a client — on one discrete-event engine. This is the top-level object the
// examples and the system-level benchmarks (E3, E4, E5, E6) instantiate.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "coord/service.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/entry_point.hpp"
#include "core/group_manager.hpp"
#include "core/local_controller.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::core {

/// The GL heartbeat multicast channel every deployment uses.
constexpr net::GroupId kGlHeartbeatGroup = 1;

struct SystemSpec {
  std::size_t entry_points = 2;
  std::size_t group_managers = 2;
  std::size_t local_controllers = 16;
  hypervisor::HostSpec host_template{};  ///< name is overridden per node
  SnoozeConfig config{};
  net::LatencyModel latency{};
  std::uint64_t seed = 42;
};

class SnoozeSystem {
 public:
  explicit SnoozeSystem(SystemSpec spec);

  SnoozeSystem(const SnoozeSystem&) = delete;
  SnoozeSystem& operator=(const SnoozeSystem&) = delete;

  /// Start every component (they self-organize from here).
  void start();

  /// Convenience: run the engine until the hierarchy is stable (a GL is
  /// elected and every live LC is assigned to a GM) or `deadline` passes.
  /// Returns true if stability was reached.
  bool run_until_stable(sim::Time deadline);

  // --- accessors ---------------------------------------------------------------
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] telemetry::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] Client& client() { return *client_; }
  [[nodiscard]] const SystemSpec& spec() const { return spec_; }

  [[nodiscard]] std::vector<std::unique_ptr<EntryPoint>>& entry_points() { return eps_; }
  [[nodiscard]] std::vector<std::unique_ptr<GroupManager>>& group_managers() {
    return gms_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<LocalController>>& local_controllers() {
    return lcs_;
  }

  /// The currently elected GL (nullptr if none).
  [[nodiscard]] GroupManager* leader();
  [[nodiscard]] net::Address gl_address();

  // --- aggregates ----------------------------------------------------------------
  [[nodiscard]] std::size_t assigned_lc_count() const;
  [[nodiscard]] std::size_t running_vm_count() const;
  [[nodiscard]] std::size_t suspended_lc_count() const;
  [[nodiscard]] double total_work() const;    ///< VM-seconds of useful work so far
  [[nodiscard]] double total_energy() const;  ///< joules across all LC nodes so far
  /// Joules across all LC nodes split by power-state class (on/suspended/off);
  /// the three entries sum to total_energy().
  [[nodiscard]] std::array<double, energy::kNumPowerClasses> total_energy_by_state() const;

  /// Human-readable hierarchy snapshot (the CLI's "live visualization").
  [[nodiscard]] std::string hierarchy_dump();

  /// Build a VM descriptor with a fresh unique id.
  VmDescriptor make_vm(const ResourceVector& requested, double lifetime_s = 0.0,
                       TraceSpec trace = {});

  // --- fault injection --------------------------------------------------------
  /// Crash the current GL. Returns the index of the crashed GM, or -1.
  int fail_gl();
  void fail_gm(std::size_t index) { gms_.at(index)->fail(); }
  void fail_lc(std::size_t index) { lcs_.at(index)->fail(); }

 private:
  SystemSpec spec_;
  sim::Engine engine_;
  net::Network network_;
  sim::Trace trace_;
  telemetry::Telemetry telemetry_;
  std::unique_ptr<coord::Service> coord_;
  std::vector<std::unique_ptr<EntryPoint>> eps_;
  std::vector<std::unique_ptr<GroupManager>> gms_;
  std::vector<std::unique_ptr<LocalController>> lcs_;
  std::unique_ptr<Client> client_;
  VmId next_vm_id_ = 1;
};

}  // namespace snooze::core
