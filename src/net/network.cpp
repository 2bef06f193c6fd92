#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace snooze::net {

Network::Network(sim::Engine& engine, LatencyModel latency)
    : engine_(engine),
      latency_(latency),
      delivery_target_(engine.add_target(this, &Network::deliver_due)) {}

void Network::attach(Address addr, Endpoint* endpoint) {
  assert(addr != kNullAddress && endpoint != nullptr);
  if (addr >= endpoints_.size()) endpoints_.resize(std::size_t{addr} + 1);
  endpoints_[addr] = endpoint;
  next_address_ = std::max(next_address_, addr + 1);
}

void Network::detach(Address addr) {
  if (addr < endpoints_.size()) endpoints_[addr] = nullptr;
}

bool Network::attached(Address addr) const {
  return addr < endpoints_.size() && endpoints_[addr] != nullptr;
}

Address Network::allocate_address() { return next_address_++; }

bool Network::blocked(Address from, Address to) const {
  if (partitions_.empty()) return false;
  for (const auto& group : partitions_) {
    const bool has_from = group.count(from) > 0;
    const bool has_to = group.count(to) > 0;
    if (has_from || has_to) {
      if (has_from && has_to) return false;
      // Keep scanning: a node may legitimately appear in no group (then it
      // is isolated from every grouped node).
      if (has_from != has_to) return true;
    }
  }
  return false;
}

LinkFaults Network::effective_faults(Address from, Address to) const {
  const auto it = link_faults_.find({from, to});
  if (it == link_faults_.end()) {
    LinkFaults out;
    out.drop = drop_probability_;
    return out;
  }
  // The link's loss process and the global one compose independently.
  LinkFaults out = it->second;
  out.drop = 1.0 - (1.0 - drop_probability_) * (1.0 - out.drop);
  return out;
}

void Network::deliver_after(sim::Time delay, Envelope env) {
  std::uint32_t index;
  if (delivery_free_ != kNoDelivery) {
    index = delivery_free_;
    Envelope& free = deliveries_[index].env;
    delivery_free_ = static_cast<std::uint32_t>(free.rpc_id);
    free = std::move(env);
  } else {
    index = static_cast<std::uint32_t>(deliveries_.size());
    deliveries_.push_back(PendingDelivery{std::move(env)});
  }
  engine_.schedule_call(delay, delivery_target_, index);
}

void Network::deliver_due(void* self, std::uint32_t index) {
  static_cast<Network*>(self)->complete_delivery(index);
}

void Network::complete_delivery(std::uint32_t index) {
  // Take the envelope and recycle the slab entry up front: on_message may
  // send (and thus park) new deliveries. The move empties the payload; the
  // record's other fields are dead until deliver_after overwrites them.
  Envelope& parked = deliveries_[index].env;
  Envelope env = std::move(parked);
  parked.rpc_id = delivery_free_;
  delivery_free_ = index;

  // Re-check at delivery time: the receiver may have crashed or detached
  // while the message was in flight.
  if (down_.count(env.to) || !attached(env.to)) {
    ++stats_.messages_dropped;
    if (counters_.dropped != nullptr) counters_.dropped->inc();
    return;
  }
  ++stats_.messages_delivered;
  if (counters_.delivered != nullptr) counters_.delivered->inc();
  endpoints_[env.to]->on_message(env);
}

bool Network::send(Address from, Address to, MsgPtr msg) {
  assert(msg != nullptr);
  Envelope env{from, to, nullptr, msg->ctx, msg->epoch};
  env.payload = std::move(msg);
  return send(std::move(env));
}

bool Network::send(Envelope env) {
  assert(env.payload != nullptr);
  const Address from = env.from;
  const Address to = env.to;
  if (down_.count(from)) return false;
  const std::size_t size = env.wire_size();
  ++stats_.messages_sent;
  stats_.bytes_sent += size;
  if (counters_.sent != nullptr) {
    counters_.sent->inc();
    counters_.bytes->inc(size);
  }

  LinkFaults faults;
  if (any_faults_) {
    faults = effective_faults(from, to);
  } else {
    faults.drop = 0.0;
    faults.reorder_delay = 0.0;
  }
  if (down_.count(to) || blocked(from, to) ||
      (faults.drop > 0.0 && engine_.rng().chance(faults.drop))) {
    ++stats_.messages_dropped;
    if (counters_.dropped != nullptr) counters_.dropped->inc();
    return true;  // sent but lost in transit
  }

  sim::Time latency = latency_.sample(engine_.rng()) + faults.extra_latency;
  if (faults.reorder > 0.0 && engine_.rng().chance(faults.reorder)) {
    // Bounded reordering: hold the message back so later sends overtake it.
    latency += engine_.rng().uniform(0.0, faults.reorder_delay);
  }
  if (faults.flaky_latency > 0.0) {
    // Flaky link: advance the per-link burst state one step, then stretch
    // this message if the link is inside a burst episode.
    bool& bursting = flaky_bursting_[{from, to}];
    bursting = bursting ? !engine_.rng().chance(faults.flaky_stop)
                        : engine_.rng().chance(faults.flaky_start);
    if (bursting) {
      latency += engine_.rng().uniform(faults.flaky_latency * 0.5,
                                       faults.flaky_latency);
    }
  }
  const bool duplicated =
      faults.duplicate > 0.0 && engine_.rng().chance(faults.duplicate);
  deliver_after(latency, env);
  if (duplicated) {
    ++stats_.messages_duplicated;
    if (counters_.duplicated != nullptr) counters_.duplicated->inc();
    deliver_after(latency + latency_.sample(engine_.rng()), std::move(env));
  }
  return true;
}

void Network::multicast(Address from, GroupId group, const MsgPtr& msg) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  // Snapshot membership into the reused scratch buffer: deliveries are
  // always asynchronous (send() only schedules), so the group cannot mutate
  // inside this loop, but join/leave between batched sends must not
  // invalidate iteration. One buffer serves every multicast — the per-call
  // vector allocation was measurable at heartbeat fan-out scale — and the
  // copy out of the sorted member vector is a memcpy.
  multicast_scratch_.assign(it->second.begin(), it->second.end());
  for (Address member : multicast_scratch_) {
    if (member == from) continue;
    send(from, member, msg);
  }
}

void Network::join_group(GroupId group, Address member) {
  auto& members = groups_[group];
  const auto pos = std::lower_bound(members.begin(), members.end(), member);
  if (pos == members.end() || *pos != member) members.insert(pos, member);
}

void Network::leave_group(GroupId group, Address member) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  auto& members = it->second;
  const auto pos = std::lower_bound(members.begin(), members.end(), member);
  if (pos != members.end() && *pos == member) members.erase(pos);
}

std::size_t Network::group_size(GroupId group) const {
  const auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.size();
}

void Network::set_node_up(Address addr, bool up) {
  if (up) {
    down_.erase(addr);
  } else {
    down_.insert(addr);
  }
}

void Network::set_partitions(std::vector<std::set<Address>> partitions) {
  partitions_ = std::move(partitions);
}

bool Network::reachable(Address from, Address to) const {
  return down_.count(from) == 0 && down_.count(to) == 0 && !blocked(from, to);
}

void Network::update_fault_flag() {
  any_faults_ = drop_probability_ > 0.0 || !link_faults_.empty();
}

void Network::set_link_faults(Address from, Address to, LinkFaults faults) {
  if (faults.clear()) {
    link_faults_.erase({from, to});
    flaky_bursting_.erase({from, to});
  } else {
    link_faults_[{from, to}] = faults;
  }
  update_fault_flag();
}

void Network::clear_link_faults(Address from, Address to) {
  link_faults_.erase({from, to});
  flaky_bursting_.erase({from, to});
  update_fault_flag();
}

void Network::clear_all_faults() {
  link_faults_.clear();
  flaky_bursting_.clear();
  update_fault_flag();
}

void Network::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    counters_ = {};
    return;
  }
  auto& registry = telemetry_->metrics();
  counters_.sent = &registry.counter("net.messages_sent");
  counters_.delivered = &registry.counter("net.messages_delivered");
  counters_.dropped = &registry.counter("net.messages_dropped");
  counters_.duplicated = &registry.counter("net.messages_duplicated");
  counters_.bytes = &registry.counter("net.bytes_sent");
}

}  // namespace snooze::net
