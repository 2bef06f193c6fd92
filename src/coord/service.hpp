// In-simulation coordination service (ZooKeeper stand-in).
//
// Holds a znode tree with ephemeral/sequential nodes, sessions expired on
// missed pings, and one-shot watches. The real ZooKeeper ensemble is itself
// replicated and highly available; we model it as a single always-up actor —
// the property Snooze relies on is the *API contract* (ephemeral nodes vanish
// with their session, watches fire on change), not ZooKeeper's internals.
#pragma once

#include <map>
#include <set>
#include <string>

#include "coord/messages.hpp"
#include "net/rpc.hpp"
#include "sim/actor.hpp"
#include "telemetry/telemetry.hpp"

namespace snooze::coord {

class Service final : public sim::Actor {
 public:
  Service(sim::Engine& engine, net::Network& network, net::Address address,
          sim::Time expiry_check_period = 0.25);

  [[nodiscard]] net::Address address() const { return endpoint_.address(); }

  // Introspection for tests.
  [[nodiscard]] bool node_exists(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> children_of(const std::string& path) const;
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

 private:
  struct Znode {
    SessionId ephemeral_owner = kNullSession;  // 0 = persistent
    std::uint64_t next_sequence = 0;
  };
  struct Session {
    net::Address owner = net::kNullAddress;
    sim::Time timeout = 10.0;
    sim::Time last_ping = 0.0;
    std::set<std::string> ephemeral_nodes;
  };

  net::MsgPtr handle(const net::Envelope& env);
  net::MsgPtr handle_create(const Request& req, net::Address from);
  net::MsgPtr handle_delete(const Request& req);
  void delete_node(const std::string& path);
  void check_expiry();
  void expire_session(SessionId id);
  void fire_node_watches(const std::string& path, WatchEvent::Kind kind);
  void fire_child_watches(const std::string& parent);
  static std::string parent_of(const std::string& path);

  /// Telemetry sink shared by every component on this network (may be null).
  [[nodiscard]] telemetry::Telemetry* tel() const {
    return endpoint_.network().telemetry();
  }
  void bump(std::string_view counter) { telemetry::count(tel(), counter); }

  net::RpcEndpoint endpoint_;
  /// Bumped per request, so looked up once.
  telemetry::CounterRef<"coord.requests"> requests_;
  std::map<std::string, Znode> nodes_;
  std::map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  // One-shot watches: path -> client addresses.
  std::map<std::string, std::set<net::Address>> node_watches_;
  std::map<std::string, std::set<net::Address>> child_watches_;
};

}  // namespace snooze::coord
