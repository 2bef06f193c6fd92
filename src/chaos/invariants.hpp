// Continuously checked safety invariants for chaos runs.
//
// The InvariantChecker samples a running SnoozeSystem at a fixed period and
// records violations of properties that must hold no matter which faults are
// injected:
//
//   * at most one GL within any mutually reachable set of nodes (two leaders
//     separated by a partition are legitimate; two that can exchange traffic
//     for longer than a grace window are split-brain),
//   * no VM instance running on two hosts past a grace window (migration has
//     a legal transient while the destination holds the copy),
//   * per-node and total energy meters are monotone,
//   * traffic counters are monotone and consistent
//     (delivered + dropped <= sent + duplicated),
//   * no authority-bearing command from a stale epoch is ever applied (the
//     fence tripwires in every GM and LC must stay at zero), and no two
//     mutually reachable leaders claim the same election epoch.
//
// After the last fault heals, final_check() additionally asserts liveness:
// the hierarchy reconverges within a bound, exactly one GL exists, and every
// accepted VM (minus those excused because their host was deliberately
// crashed) is hosted exactly once.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.hpp"
#include "sim/actor.hpp"

namespace snooze::chaos {

class InvariantChecker final : public sim::Actor {
 public:
  struct Options {
    sim::Time sample_period = 0.5;
    /// How long one VM id may run on two hosts before it counts as a
    /// duplicate (covers the migration adopt/ack window).
    sim::Time duplicate_grace = 15.0;
  };

  explicit InvariantChecker(core::SnoozeSystem& system);
  InvariantChecker(core::SnoozeSystem& system, Options options);

  /// Begin periodic sampling.
  void start();

  /// Record that the cloud accepted this VM; final_check() requires it to be
  /// hosted exactly once unless excused.
  void note_accepted(core::VmId id);

  /// Excuse VMs whose host is about to be deliberately crashed (the paper's
  /// semantics terminate a failed node's VMs, so "lost" is expected).
  void excuse_vms(const std::vector<core::VmId>& ids);

  /// Liveness check after the last fault healed: runs the system until the
  /// hierarchy stabilizes (at most `bound` longer), then asserts exactly one
  /// leader and exactly-once hosting of all accepted, non-excused VMs.
  /// Returns true when the hierarchy reconverged in time.
  bool final_check(sim::Time bound);

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }
  [[nodiscard]] std::size_t accepted_count() const { return accepted_.size(); }
  [[nodiscard]] std::size_t excused_count() const { return excused_.size(); }

  /// Multi-line summary (violations or "all invariants held").
  [[nodiscard]] std::string report() const;

 private:
  /// check_duplicates' view of one LC's host as of the last time it changed:
  /// the LC's liveness, the host's change count and the ids active there.
  struct HostView {
    bool alive = false;
    std::uint64_t changes = 0;
    std::vector<core::VmId> active;  ///< ascending; empty while the LC is down
  };

  void sample();
  void check_leaders();
  void check_duplicates();
  /// Re-read one host's active ids and move the per-id host counts by the
  /// difference to what the view held.
  void reread_host(HostView& view, const core::LocalController& lc);
  void check_energy();
  void check_traffic();
  void check_epochs();
  void violation(const std::string& message);

  core::SnoozeSystem& system_;
  Options options_;

  std::vector<core::VmId> accepted_;
  std::set<core::VmId> excused_;

  std::vector<core::GroupManager*> leaders_;  ///< live leaders at this sample
  sim::Time multi_leader_since_ = -1.0;
  std::uint64_t last_stale_accepts_ = 0;
  std::map<core::VmId, sim::Time> duplicate_since_;

  std::vector<HostView> hosts_;  ///< per LC, in local_controllers() order
  std::vector<core::VmId> reread_;  ///< a changed host's new active ids
  std::unordered_map<core::VmId, std::size_t> active_hosts_;  ///< hosts per active id
  std::set<core::VmId> duplicates_;  ///< ids active on two or more hosts
  std::vector<double> last_energy_;  ///< per LC, in local_controllers() order
  double last_total_energy_ = 0.0;
  net::TrafficStats last_traffic_;

  std::vector<std::string> violations_;
};

}  // namespace snooze::chaos
