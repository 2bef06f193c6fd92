#include "core/system.hpp"

#include <cstdio>
#include <sstream>

#include "util/rng.hpp"

namespace snooze::core {

SnoozeSystem::SnoozeSystem(SystemSpec spec)
    : spec_(std::move(spec)), engine_(spec_.seed), network_(engine_, spec_.latency),
      trace_(engine_), telemetry_(engine_) {
  // Attach telemetry before any component exists so every endpoint sees it.
  network_.set_telemetry(&telemetry_);
  coord_ = std::make_unique<coord::Service>(engine_, network_,
                                            network_.allocate_address());

  for (std::size_t i = 0; i < spec_.entry_points; ++i) {
    eps_.push_back(std::make_unique<EntryPoint>(engine_, network_, kGlHeartbeatGroup,
                                                "ep-" + std::to_string(i), &trace_));
  }
  for (std::size_t i = 0; i < spec_.group_managers; ++i) {
    gms_.push_back(std::make_unique<GroupManager>(engine_, network_, coord_->address(),
                                                  spec_.config, kGlHeartbeatGroup,
                                                  "gm-" + std::to_string(i), &trace_));
  }
  util::Rng host_rng(spec_.seed ^ 0x9E3779B97F4A7C15ull);
  for (std::size_t i = 0; i < spec_.local_controllers; ++i) {
    hypervisor::HostSpec host = spec_.host_template;
    char name[32];
    std::snprintf(name, sizeof(name), "lc-%03zu", i);
    host.name = name;
    if (spec_.host_capacity_spread > 0.0) {
      const double f = 1.0 + host_rng.uniform(-spec_.host_capacity_spread,
                                              spec_.host_capacity_spread);
      host.capacity = host.capacity.scaled(f);
    }
    lcs_.push_back(std::make_unique<LocalController>(engine_, network_, std::move(host),
                                                     spec_.config, kGlHeartbeatGroup,
                                                     &trace_));
  }
  std::vector<net::Address> ep_addresses;
  for (const auto& ep : eps_) ep_addresses.push_back(ep->address());
  client_ = std::make_unique<Client>(engine_, network_, std::move(ep_addresses),
                                     spec_.config, "client", &trace_);
}

void SnoozeSystem::start() {
  for (auto& ep : eps_) ep->start();
  for (auto& gm : gms_) gm->start();
  for (auto& lc : lcs_) lc->start();
}

bool SnoozeSystem::run_until_stable(sim::Time deadline) {
  while (engine_.now() < deadline) {
    const sim::Time step = std::min(deadline, engine_.now() + 1.0);
    engine_.run_until(step);
    const bool has_leader = leader() != nullptr;
    std::size_t live = 0;
    std::size_t assigned = 0;
    for (const auto& lc : lcs_) {
      if (!lc->alive()) continue;
      if (lc->power_state() == energy::PowerState::kSuspended) continue;
      ++live;
      if (lc->assigned()) ++assigned;
    }
    if (has_leader && live == assigned && live > 0) return true;
    if (engine_.pending_events() == 0) break;
  }
  return false;
}

GroupManager* SnoozeSystem::leader() {
  for (auto& gm : gms_) {
    if (gm->alive() && gm->is_leader()) return gm.get();
  }
  return nullptr;
}

net::Address SnoozeSystem::gl_address() {
  GroupManager* gl = leader();
  return gl != nullptr ? gl->address() : net::kNullAddress;
}

std::size_t SnoozeSystem::assigned_lc_count() const {
  std::size_t n = 0;
  for (const auto& lc : lcs_) {
    if (lc->alive() && lc->assigned()) ++n;
  }
  return n;
}

std::size_t SnoozeSystem::running_vm_count() const {
  std::size_t n = 0;
  for (const auto& lc : lcs_) {
    if (lc->alive()) n += lc->vm_count();
  }
  return n;
}

std::size_t SnoozeSystem::suspended_lc_count() const {
  std::size_t n = 0;
  for (const auto& lc : lcs_) {
    if (lc->alive() && lc->suspended()) ++n;
  }
  return n;
}

double SnoozeSystem::total_work() const {
  double work = 0.0;
  for (const auto& lc : lcs_) work += lc->total_work(engine_.now());
  return work;
}

double SnoozeSystem::total_energy() const {
  double joules = 0.0;
  for (const auto& lc : lcs_) joules += lc->energy_joules(engine_.now());
  return joules;
}

std::array<double, energy::kNumPowerClasses> SnoozeSystem::total_energy_by_state() const {
  std::array<double, energy::kNumPowerClasses> total{};
  for (const auto& lc : lcs_) {
    const auto split = lc->host().meter().joules_by_class(engine_.now());
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += split[i];
  }
  return total;
}

std::string SnoozeSystem::hierarchy_dump() {
  std::ostringstream out;
  GroupManager* gl = leader();
  out << "hierarchy @ t=" << engine_.now() << "\n";
  out << "  GL: " << (gl != nullptr ? gl->name() : std::string("<none>")) << "\n";
  for (const auto& gm : gms_) {
    if (!gm->alive() || gm->is_leader()) continue;
    out << "  GM " << gm->name() << ": " << gm->lc_count() << " LCs, "
        << gm->vm_count() << " VMs\n";
  }
  std::size_t unassigned = 0;
  std::size_t suspended = 0;
  for (const auto& lc : lcs_) {
    if (!lc->alive()) continue;
    if (lc->suspended()) {
      ++suspended;
    } else if (!lc->assigned()) {
      ++unassigned;
    }
  }
  out << "  LCs: " << lcs_.size() << " total, " << assigned_lc_count() << " assigned, "
      << suspended << " suspended, " << unassigned << " joining\n";
  return out.str();
}

VmDescriptor SnoozeSystem::make_vm(const ResourceVector& requested, double lifetime_s,
                                   TraceSpec trace) {
  VmDescriptor vm;
  vm.id = next_vm_id_++;
  vm.requested = requested;
  vm.memory_mb = 1024.0 + requested.memory() * 14336.0;
  vm.dirty_rate_mbps = 25.0 + requested.cpu() * 150.0;
  vm.lifetime_s = lifetime_s;
  vm.trace = trace;
  return vm;
}

void SnoozeSystem::enable_auto_roles(std::size_t min_group_managers,
                                     sim::Time check_period) {
  min_group_managers_ = min_group_managers;
  // Self-rescheduling supervisor tick on the engine (the SnoozeSystem is the
  // framework here — in a fully symmetric deployment this logic would live
  // on every node, triggered by the same GL/GM heartbeat observations).
  // The closure keeps only a weak reference to itself (the scheduled event
  // owns the strong one) so the chain never forms a shared_ptr cycle.
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [this, check_period,
           weak = std::weak_ptr<std::function<void()>>(tick)] {
    auto_role_check();
    if (auto self = weak.lock()) {
      engine_.schedule(check_period, [self] { (*self)(); });
    }
  };
  engine_.schedule(check_period, [tick] { (*tick)(); });
}

void SnoozeSystem::auto_role_check() {
  if (min_group_managers_ == 0) return;
  std::size_t live_gms = 0;
  for (const auto& gm : gms_) {
    if (gm->alive()) ++live_gms;
  }
  if (live_gms >= min_group_managers_) return;

  // Promote an idle LC: retire the LC role, start a GM on the same machine.
  for (auto& lc : lcs_) {
    if (!lc->alive() || lc->vm_count() > 0 ||
        lc->power_state() != energy::PowerState::kOn) {
      continue;
    }
    const std::string machine = lc->host().spec().name;
    lc->fail();  // the machine leaves the LC role (it hosts no VMs)
    trace_.record(machine, "system.role_promoted", "lc -> gm");
    auto gm = std::make_unique<GroupManager>(engine_, network_, coord_->address(),
                                             spec_.config, kGlHeartbeatGroup,
                                             machine + "-gm", &trace_);
    gm->start();
    gms_.push_back(std::move(gm));
    ++role_promotions_;
    return;  // one promotion per supervisor tick
  }
}

int SnoozeSystem::fail_gl() {
  for (std::size_t i = 0; i < gms_.size(); ++i) {
    if (gms_[i]->alive() && gms_[i]->is_leader()) {
      gms_[i]->fail();
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace snooze::core
