#include "chaos/invariants.hpp"

#include <cassert>
#include <sstream>

#include "hypervisor/vm.hpp"

namespace snooze::chaos {

InvariantChecker::InvariantChecker(core::SnoozeSystem& system)
    : InvariantChecker(system, Options{}) {}

InvariantChecker::InvariantChecker(core::SnoozeSystem& system, Options options)
    : sim::Actor(system.engine(), "invariants"), system_(system), options_(options) {}

void InvariantChecker::start() {
  // Seed the monotonicity baselines so the first sample has no false delta.
  // The LC list is fixed when the system is built, so a position names one
  // LC for the whole run.
  last_energy_.clear();
  for (const auto& lc : system_.local_controllers()) {
    last_energy_.push_back(lc->energy_joules(now()));
  }
  hosts_.assign(system_.local_controllers().size(), HostView{});
  active_hosts_.clear();
  duplicates_.clear();
  last_total_energy_ = system_.total_energy();
  last_traffic_ = system_.network().stats();
  every(options_.sample_period, [this] {
    sample();
    return true;
  });
}

void InvariantChecker::note_accepted(core::VmId id) { accepted_.push_back(id); }

void InvariantChecker::excuse_vms(const std::vector<core::VmId>& ids) {
  excused_.insert(ids.begin(), ids.end());
}

void InvariantChecker::violation(const std::string& message) {
  std::ostringstream out;
  out << "t=" << now() << ": " << message;
  violations_.push_back(out.str());
  // Also land the breach in the deterministic trace so the incident engine
  // can open an episode on it. Healthy runs record nothing here, so golden
  // traces are unaffected.
  system_.trace().record(name(), "invariant.violation", message);
}

void InvariantChecker::sample() {
  // Live leaders, read once for check_leaders and check_epochs.
  leaders_.clear();
  for (const auto& gm : system_.group_managers()) {
    if (gm->alive() && gm->is_leader()) leaders_.push_back(gm.get());
  }
  check_leaders();
  check_duplicates();
  check_energy();
  check_traffic();
  check_epochs();
}

void InvariantChecker::check_epochs() {
  // No accepted command from a stale epoch: every fence keeps a tripwire
  // counting authority-bearing commands that reached the apply path while
  // below the receiver's high-water mark. The sum must never move.
  std::uint64_t stale = 0;
  for (const auto& gm : system_.group_managers()) stale += gm->stale_accepts();
  for (const auto& lc : system_.local_controllers()) stale += lc->stale_accepts();
  if (stale > last_stale_accepts_) {
    violation("stale-epoch command applied: fence tripwires advanced by " +
              std::to_string(stale - last_stale_accepts_));
  }
  last_stale_accepts_ = stale;

  // Distinct terms: two live, mutually reachable leaders must disagree on
  // their election epoch (equal epochs mean the fencing tokens cannot order
  // them and the fence is useless).
  const auto& leaders = leaders_;
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    for (std::size_t j = i + 1; j < leaders.size(); ++j) {
      if (leaders[i]->epoch() == leaders[j]->epoch() &&
          system_.network().reachable(leaders[i]->address(), leaders[j]->address())) {
        violation("two reachable leaders share election epoch " +
                  std::to_string(leaders[i]->epoch()));
      }
    }
  }
}

void InvariantChecker::check_leaders() {
  // Look for a pair of live leaders that can still talk to each other:
  // leaders on both sides of a partition are the expected Snooze behaviour,
  // mutually reachable leaders must resolve within the grace.
  const auto& leaders = leaders_;
  bool reachable_pair = false;
  for (std::size_t i = 0; i < leaders.size() && !reachable_pair; ++i) {
    for (std::size_t j = i + 1; j < leaders.size(); ++j) {
      if (system_.network().reachable(leaders[i]->address(), leaders[j]->address()) &&
          system_.network().reachable(leaders[j]->address(), leaders[i]->address())) {
        reachable_pair = true;
        break;
      }
    }
  }
  if (!reachable_pair) {
    multi_leader_since_ = -1.0;
    return;
  }
  if (multi_leader_since_ < 0.0) {
    multi_leader_since_ = now();
    return;
  }
  if (now() - multi_leader_since_ > options_.multi_leader_grace) {
    violation("split-brain: " + std::to_string(leaders.size()) +
              " mutually reachable group leaders persisted past the grace window");
    multi_leader_since_ = now();  // re-arm so one incident reports once per window
  }
}

void InvariantChecker::check_duplicates() {
  // A VM counts towards duplication while actively running (or booting) on a
  // host; the migration source parked in kMigrating is the legal transient.
  // Every state move goes through the host and bumps its change count, so a
  // host whose LC liveness and count are as last seen still has the active
  // ids its view holds.
  const auto& lcs = system_.local_controllers();
  assert(lcs.size() == hosts_.size());
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    const core::LocalController& lc = *lcs[i];
    HostView& view = hosts_[i];
    if (view.alive != lc.alive() || view.changes != lc.host().change_count()) {
      reread_host(view, lc);
    }
  }
  for (auto it = duplicate_since_.begin(); it != duplicate_since_.end();) {
    if (duplicates_.count(it->first) == 0) {
      it = duplicate_since_.erase(it);  // resolved
    } else {
      ++it;
    }
  }
  for (const core::VmId id : duplicates_) {
    const auto [it, inserted] = duplicate_since_.emplace(id, now());
    if (inserted) continue;
    if (now() - it->second > options_.duplicate_grace) {
      violation("duplicate VM " + std::to_string(id) + " active on " +
                std::to_string(active_hosts_.at(id)) + " hosts past the grace window");
      it->second = now();  // one report per exceeded window
    }
  }
}

void InvariantChecker::reread_host(HostView& view, const core::LocalController& lc) {
  view.alive = lc.alive();
  view.changes = lc.host().change_count();
  reread_.clear();
  if (view.alive) {
    for (const auto& [id, vm] : lc.host().vms()) {  // ascending ids
      const auto state = vm->state();
      if (state == hypervisor::VmState::kBooting ||
          state == hypervisor::VmState::kRunning) {
        reread_.push_back(id);
      }
    }
  }
  const auto enter = [this](core::VmId id) {
    if (++active_hosts_[id] == 2) duplicates_.insert(id);
  };
  const auto leave = [this](core::VmId id) {
    const auto it = active_hosts_.find(id);
    assert(it != active_hosts_.end());
    if (--it->second == 1) {
      duplicates_.erase(id);
    } else if (it->second == 0) {
      active_hosts_.erase(it);
    }
  };
  // Both lists ascend: one merge finds the ids that left and entered.
  auto before = view.active.begin();
  auto after = reread_.begin();
  while (before != view.active.end() || after != reread_.end()) {
    if (after == reread_.end() || (before != view.active.end() && *before < *after)) {
      leave(*before++);
    } else if (before == view.active.end() || *after < *before) {
      enter(*after++);
    } else {
      ++before;
      ++after;
    }
  }
  view.active.swap(reread_);
}

void InvariantChecker::check_energy() {
  constexpr double kSlack = 1e-9;
  double total = 0.0;
  const auto& lcs = system_.local_controllers();
  assert(lcs.size() == last_energy_.size());
  for (std::size_t i = 0; i < lcs.size(); ++i) {
    const double joules = lcs[i]->energy_joules(now());
    total += joules;
    double& last = last_energy_[i];
    if (joules + kSlack < last) {
      violation("energy meter of " + lcs[i]->name() + " went backwards (" +
                std::to_string(last) + " -> " + std::to_string(joules) + " J)");
    }
    last = joules;
  }
  if (total + kSlack < last_total_energy_) {
    violation("total energy went backwards");
  }
  last_total_energy_ = total;
}

void InvariantChecker::check_traffic() {
  const net::TrafficStats& s = system_.network().stats();
  if (s.messages_sent < last_traffic_.messages_sent ||
      s.messages_delivered < last_traffic_.messages_delivered ||
      s.messages_dropped < last_traffic_.messages_dropped ||
      s.messages_duplicated < last_traffic_.messages_duplicated ||
      s.bytes_sent < last_traffic_.bytes_sent) {
    violation("traffic counters went backwards");
  }
  if (s.messages_delivered + s.messages_dropped >
      s.messages_sent + s.messages_duplicated) {
    violation("traffic accounting inconsistent: delivered + dropped > sent + duplicated");
  }
  last_traffic_ = s;
}

bool InvariantChecker::final_check(sim::Time bound) {
  const bool converged = system_.run_until_stable(now() + bound);
  if (!converged) {
    violation("hierarchy failed to reconverge within " + std::to_string(bound) +
              "s after the last fault healed");
  }
  std::size_t leaders = 0;
  for (const auto& gm : system_.group_managers()) {
    if (gm->alive() && gm->is_leader()) ++leaders;
  }
  if (leaders != 1) {
    violation("expected exactly one group leader after healing, found " +
              std::to_string(leaders));
  }

  std::map<core::VmId, int> hosts;
  for (const auto& lc : system_.local_controllers()) {
    if (!lc->alive()) continue;
    for (const auto& [id, vm] : lc->host().vms()) {
      const auto state = vm->state();
      if (state == hypervisor::VmState::kBooting ||
          state == hypervisor::VmState::kRunning ||
          state == hypervisor::VmState::kMigrating) {
        ++hosts[id];
      }
    }
  }
  for (const core::VmId id : accepted_) {
    if (excused_.count(id) > 0) continue;
    const auto it = hosts.find(id);
    const int count = it == hosts.end() ? 0 : it->second;
    if (count == 0) {
      violation("accepted VM " + std::to_string(id) + " lost (hosted nowhere)");
    } else if (count > 1) {
      violation("accepted VM " + std::to_string(id) + " hosted " +
                std::to_string(count) + " times after healing");
    }
  }
  return converged;
}

std::string InvariantChecker::report() const {
  if (violations_.empty()) {
    return "all invariants held (" + std::to_string(accepted_.size()) +
           " accepted VMs, " + std::to_string(excused_.size()) + " excused)\n";
  }
  std::ostringstream out;
  out << violations_.size() << " invariant violation(s):\n";
  for (const auto& v : violations_) out << "  " << v << '\n';
  return out.str();
}

}  // namespace snooze::chaos
