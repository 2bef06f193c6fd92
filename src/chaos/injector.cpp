#include "chaos/injector.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>

namespace snooze::chaos {

namespace {

std::string target_label(NodeRole role, int index) {
  std::string out = to_string(role);
  if (index >= 0) out += "-" + std::to_string(index);
  return out;
}

/// The node at `index`, or null when the index is out of range.
template <typename T>
T* at(const std::vector<std::unique_ptr<T>>& nodes, int index) {
  if (index < 0 || static_cast<std::size_t>(index) >= nodes.size()) return nullptr;
  return nodes[static_cast<std::size_t>(index)].get();
}

}  // namespace

ChaosInjector::ChaosInjector(core::SnoozeSystem& system, FaultSchedule schedule,
                             InvariantChecker* checker)
    : sim::Actor(system.engine(), "chaos"),
      system_(system),
      schedule_(std::move(schedule)),
      checker_(checker) {
  schedule_.sort();
}

void ChaosInjector::trace(std::string_view kind, std::string_view detail) {
  system_.trace().record(name(), kind, detail);
}

void ChaosInjector::count_fault() {
  telemetry::count(&system_.telemetry(), "chaos.faults_injected");
}

std::size_t ChaosInjector::faults_injected() const {
  return static_cast<std::size_t>(
      system_.telemetry().metrics().value("chaos.faults_injected"));
}

void ChaosInjector::open_window(const WindowKey& key, const std::string& detail,
                                std::string target) {
  const ActionKind kind = std::get<0>(key);
  const std::string record = std::string("chaos.") + to_string(kind);
  const obs::FaultClass fault_class =
      kind == ActionKind::kCrash ? obs::FaultClass::kCrash
      : kind == ActionKind::kSlow || kind == ActionKind::kSteal
          ? obs::FaultClass::kFailSlow
          : obs::FaultClass::kNetwork;
  count_fault();
  windows_[key] = {telemetry::begin_span(&system_.telemetry(), chaos_root_, record,
                                         "chaos", detail),
                   faults_.size()};
  faults_.push_back(InjectedFault{now(), std::numeric_limits<double>::infinity(),
                                  fault_class, std::move(target), record});
  trace(record, detail);
}

void ChaosInjector::close_window(const WindowKey& key) {
  const auto it = windows_.find(key);
  if (it != windows_.end()) close_window(it);
}

ChaosInjector::Windows::iterator ChaosInjector::close_window(Windows::iterator it) {
  const bool crash = std::get<0>(it->first) == ActionKind::kCrash;
  telemetry::end_span(&system_.telemetry(), it->second.span,
                      crash ? "recovered" : "healed");
  faults_[it->second.fault].cleared = now();
  return windows_.erase(it);
}

void ChaosInjector::start() {
  auto& spans = system_.telemetry().spans();
  chaos_root_ = spans.begin(spans.new_trace(), 0, "chaos.run", "chaos",
                            std::to_string(schedule_.actions.size()) + " actions");
  // Action times are relative to injection start (the cluster may have spent
  // arbitrary virtual time stabilizing before the chaos phase begins).
  for (const FaultAction& action : schedule_.actions) {
    after(std::max(0.0, action.at), [this, action] { execute(action); });
  }
  trace("chaos.start", std::to_string(schedule_.actions.size()) + " actions");
}

ChaosInjector::Node ChaosInjector::resolve(NodeRole role, int index) {
  if (role != NodeRole::kGl) return {role, index};
  const auto& gms = system_.group_managers();
  for (std::size_t i = 0; i < gms.size(); ++i) {
    if (gms[i]->alive() && gms[i]->is_leader()) {
      return {NodeRole::kGm, static_cast<int>(i)};
    }
  }
  return {NodeRole::kGl, -1};
}

std::vector<net::Address> ChaosInjector::addresses(Node node) {
  const auto [role, index] = node;
  if (role == NodeRole::kGm) {
    if (auto* gm = at(system_.group_managers(), index)) return gm->network_addresses();
  } else if (role == NodeRole::kLc) {
    if (auto* lc = at(system_.local_controllers(), index)) return {lc->address()};
  } else if (role == NodeRole::kEp) {
    if (auto* ep = at(system_.entry_points(), index)) return {ep->address()};
  }
  return {};
}

net::Address ChaosInjector::primary(Node node) {
  const std::vector<net::Address> addrs = addresses(node);
  return addrs.empty() ? net::kNullAddress : addrs.front();
}

bool ChaosInjector::take_pair(int pair, bool isolation, Node& node) {
  const auto it = pairs_.find({pair, isolation});
  if (it == pairs_.end()) return false;
  node = it->second;
  pairs_.erase(it);
  return true;
}

void ChaosInjector::execute(const FaultAction& action) {
  switch (action.kind) {
    case ActionKind::kCrash:
      do_crash(action);
      break;
    case ActionKind::kRecover:
      do_recover(action);
      break;
    case ActionKind::kIsolate:
      do_isolate(action);
      break;
    case ActionKind::kHeal:
      do_heal(action);
      break;
    case ActionKind::kHealAll:
      isolated_.clear();
      std::erase_if(pairs_, [](const auto& p) { return p.first.second; });
      apply_partitions();
      system_.network().clear_all_faults();
      system_.network().set_drop_probability(0.0);
      // Crashed nodes stay down and gray node faults (slow/steal) persist
      // (kHealAll only mends the network), so their fault windows stay open.
      for (auto it = windows_.begin(); it != windows_.end();) {
        const bool network =
            faults_[it->second.fault].fault_class == obs::FaultClass::kNetwork;
        it = network ? close_window(it) : std::next(it);
      }
      trace("chaos.heal", "all");
      break;
    case ActionKind::kLink:
    case ActionKind::kFlaky:
      do_link(action, true);
      break;
    case ActionKind::kUnlink:
    case ActionKind::kUnflaky:
      do_link(action, false);
      break;
    case ActionKind::kGlobalDrop:
      do_drop(action);
      break;
    case ActionKind::kSlow:
    case ActionKind::kSteal:
      do_gray(action, true);
      break;
    case ActionKind::kUnslow:
    case ActionKind::kUnsteal:
      do_gray(action, false);
      break;
  }
}

void ChaosInjector::do_crash(const FaultAction& action) {
  const Node node = resolve(action.role, action.index);
  if (node.first == NodeRole::kGl) {
    // Without a leader the action is a no-op (the cluster is already
    // leaderless, which is chaos enough).
    trace("chaos.skip", "crash gl: no leader");
    return;
  }
  if (action.pair != 0) pairs_[{action.pair, false}] = node;
  bool crashed = false;
  if (node.first == NodeRole::kGm) {
    auto* gm = at(system_.group_managers(), node.second);
    if (gm != nullptr && gm->alive()) {
      gm->fail();
      crashed = true;
    }
  } else if (node.first == NodeRole::kLc) {
    auto* lc = at(system_.local_controllers(), node.second);
    if (lc != nullptr && lc->alive()) {
      // The node's VMs die with it by design; they must not count as lost.
      if (checker_ != nullptr) checker_->excuse_vms(lc->host().vm_ids());
      lc->fail();
      crashed = true;
    }
  } else if (node.first == NodeRole::kEp) {
    if (auto* ep = at(system_.entry_points(), node.second)) {
      ep->fail();
      crashed = true;
    }
  } else {
    trace("chaos.skip", "crash: bad target");
    return;
  }
  const std::string label = target_label(node.first, node.second);
  if (!crashed) {
    trace("chaos.skip", "crash " + label);
    return;
  }
  open_window({ActionKind::kCrash, primary(node), net::kNullAddress},
              action.role == NodeRole::kGl ? "gl (" + label + ")" : label, label);
}

void ChaosInjector::do_recover(const FaultAction& action) {
  Node node{action.role, action.index};
  if (action.pair != 0 && !take_pair(action.pair, false, node)) {
    trace("chaos.skip", "recover #" + std::to_string(action.pair) + ": never crashed");
    return;
  }
  const auto restart = [](auto* n) {
    if (n != nullptr && !n->alive()) n->restart();
  };
  if (node.first == NodeRole::kGm) {
    restart(at(system_.group_managers(), node.second));
  } else if (node.first == NodeRole::kLc) {
    restart(at(system_.local_controllers(), node.second));
  } else if (node.first == NodeRole::kEp) {
    restart(at(system_.entry_points(), node.second));
  } else {
    trace("chaos.skip", "recover: bad target");
    return;
  }
  close_window({ActionKind::kCrash, primary(node), net::kNullAddress});
  trace("chaos.recover", target_label(node.first, node.second));
}

void ChaosInjector::apply_partitions() {
  // Isolation islands: all addresses of an isolated node form one partition
  // group (its own endpoints stay mutually reachable); per Network::blocked()
  // semantics, grouped nodes cannot reach any node outside their group, while
  // ungrouped nodes keep talking normally.
  std::vector<std::set<net::Address>> partitions;
  partitions.reserve(isolated_.size());
  for (const auto& [primary, island] : isolated_) partitions.push_back(island);
  system_.network().set_partitions(std::move(partitions));
}

void ChaosInjector::do_isolate(const FaultAction& action) {
  const std::string label = target_label(action.role, action.index);
  const Node node = resolve(action.role, action.index);
  const std::vector<net::Address> addrs = addresses(node);
  if (addrs.empty()) {
    trace("chaos.skip", "isolate " + label);
    return;
  }
  if (action.pair != 0) pairs_[{action.pair, true}] = node;
  if (isolated_.count(addrs.front()) > 0) return;  // already isolated
  isolated_[addrs.front()] = std::set<net::Address>(addrs.begin(), addrs.end());
  apply_partitions();
  open_window({ActionKind::kIsolate, addrs.front(), net::kNullAddress}, label,
              target_label(node.first, node.second));
}

void ChaosInjector::do_heal(const FaultAction& action) {
  Node node{action.role, action.index};
  if (action.pair == 0) {
    node = resolve(action.role, action.index);
  } else if (!take_pair(action.pair, true, node)) {
    trace("chaos.skip", "heal #" + std::to_string(action.pair) + ": not isolated");
    return;
  }
  const net::Address addr = primary(node);
  if (addr == net::kNullAddress || isolated_.erase(addr) == 0) {
    trace("chaos.skip", "heal: target not isolated");
    return;
  }
  apply_partitions();
  close_window({ActionKind::kIsolate, addr, net::kNullAddress});
  trace("chaos.heal", target_label(action.role, action.index));
}

void ChaosInjector::do_link(const FaultAction& action, bool install) {
  const bool flaky =
      action.kind == ActionKind::kFlaky || action.kind == ActionKind::kUnflaky;
  const Node node_a = resolve(action.role, action.index);
  const Node node_b = resolve(action.role2, action.index2);
  const net::Address a = primary(node_a);
  const net::Address b = primary(node_b);
  if (a == net::kNullAddress || b == net::kNullAddress || a == b) {
    trace("chaos.skip", flaky ? "flaky: bad endpoints" : "link: bad endpoints");
    return;
  }
  std::ostringstream detail;
  detail << target_label(action.role, action.index) << " <-> "
         << target_label(action.role2, action.index2);
  const WindowKey key{flaky ? ActionKind::kFlaky : ActionKind::kLink, std::min(a, b),
                      std::max(a, b)};
  if (!install) {
    system_.network().clear_link_faults(a, b);
    system_.network().clear_link_faults(b, a);
    close_window(key);
    trace(flaky ? "chaos.unflaky" : "chaos.unlink", detail.str());
    return;
  }
  system_.network().set_link_faults(a, b, action.faults);
  system_.network().set_link_faults(b, a, action.faults);
  if (flaky) {
    detail << " lat=" << action.faults.flaky_latency;
  } else {
    detail << " drop=" << action.faults.drop;
  }
  open_window(key, detail.str(),
              target_label(node_a.first, node_a.second) + " <-> " +
                  target_label(node_b.first, node_b.second));
}

void ChaosInjector::do_gray(const FaultAction& action, bool install) {
  const bool steal =
      action.kind == ActionKind::kSteal || action.kind == ActionKind::kUnsteal;
  const std::string verb = steal ? "steal" : "slow";
  Node node{action.role, action.index};
  if (!install && action.pair != 0 && !take_pair(action.pair, false, node)) {
    trace("chaos.skip", "un" + verb + " #" + std::to_string(action.pair) +
                            (steal ? ": never stolen" : ": never slowed"));
    return;
  }
  const std::string label = target_label(node.first, node.second);
  if (!steal && node.first != NodeRole::kGm && node.first != NodeRole::kLc) {
    trace("chaos.skip", "slow: bad target");
    return;
  }
  auto* gm = node.first == NodeRole::kGm && !steal
                 ? at(system_.group_managers(), node.second)
                 : nullptr;
  auto* lc = node.first == NodeRole::kLc ? at(system_.local_controllers(), node.second)
                                         : nullptr;
  if (gm == nullptr && lc == nullptr) {
    trace("chaos.skip", verb + " " + label);
    return;
  }
  // A dead node cannot be slow; the knob survives restarts by design (the
  // injector, not the component, owns the fault window), so we still clear it
  // on uninstall even if the node crashed mid-window.
  if (steal) {
    lc->set_cpu_steal(install ? action.severity : 0.0);
  } else if (gm != nullptr) {
    gm->set_service_stretch(install ? action.severity : 1.0);
  } else {
    lc->set_service_stretch(install ? action.severity : 1.0);
  }
  const WindowKey key{steal ? ActionKind::kSteal : ActionKind::kSlow, primary(node),
                      net::kNullAddress};
  if (!install) {
    close_window(key);
    trace("chaos.un" + verb, label);
    return;
  }
  if (action.pair != 0) pairs_[{action.pair, false}] = node;
  std::ostringstream detail;
  detail << label << (steal ? " frac=" : " factor=") << action.severity;
  open_window(key, detail.str(), label);
}

void ChaosInjector::do_drop(const FaultAction& action) {
  // One loss window spans from the first drop > 0 to the next drop 0; a
  // raise inside it still counts as a fault.
  system_.network().set_drop_probability(action.drop);
  const WindowKey key{ActionKind::kGlobalDrop, net::kNullAddress, net::kNullAddress};
  const std::string detail = std::to_string(action.drop);
  if (action.drop > 0.0 && windows_.count(key) == 0) {
    open_window(key, detail, "");
    return;
  }
  if (action.drop > 0.0) {
    count_fault();
  } else {
    close_window(key);
  }
  trace("chaos.drop", detail);
}

void ChaosInjector::heal_all_remaining() {
  for (auto& gm : system_.group_managers()) {
    if (!gm->alive()) gm->restart();
  }
  for (auto& lc : system_.local_controllers()) {
    if (!lc->alive()) lc->restart();
  }
  for (auto& ep : system_.entry_points()) {
    if (!ep->alive()) ep->restart();
  }
  // Gray node faults end with the run: the final liveness check must start
  // from a fleet that is not just connected but also full-speed.
  for (auto& gm : system_.group_managers()) gm->set_service_stretch(1.0);
  for (auto& lc : system_.local_controllers()) {
    lc->set_service_stretch(1.0);
    lc->set_cpu_steal(0.0);
  }
  isolated_.clear();
  pairs_.clear();
  apply_partitions();
  system_.network().clear_all_faults();
  system_.network().set_drop_probability(0.0);
  for (auto it = windows_.begin(); it != windows_.end();) it = close_window(it);
  telemetry::end_span(&system_.telemetry(), chaos_root_, "ok");
  trace("chaos.heal", "final");
}

}  // namespace snooze::chaos
