// Coordination client: a component-side session to the coordination service.
//
// Owns its own network endpoint (a "client connection"), keeps its session
// alive with pings, and exposes the async znode calls the leader election
// recipe makes (create, delete, exists, children). A session ends only by
// expiry: when the owning component crashes, crash() silences the pings so
// the session expires server-side, deleting the component's ephemeral
// znodes — exactly the ZooKeeper failure behaviour the Snooze GL election
// depends on.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "coord/messages.hpp"
#include "net/rpc.hpp"
#include "sim/actor.hpp"

namespace snooze::coord {

class Client final : public sim::Actor {
 public:
  using StatusCb = std::function<void(bool ok)>;
  using CreateCb = std::function<void(bool ok, const std::string& actual_path)>;
  using ExistsCb = std::function<void(bool ok, bool exists)>;
  using ChildrenCb = std::function<void(bool ok, const std::vector<std::string>& children)>;
  using WatchHandler = std::function<void(const WatchEvent& event)>;

  Client(sim::Engine& engine, net::Network& network, net::Address service,
         std::string name);

  [[nodiscard]] net::Address address() const { return endpoint_.address(); }
  [[nodiscard]] SessionId session() const { return session_; }
  [[nodiscard]] bool has_session() const { return session_ != kNullSession; }

  /// Watches registered through exists()/get_children() fire here.
  void set_watch_handler(WatchHandler handler) { on_watch_ = std::move(handler); }

  /// Fires (with ok=false) if the service reports our session expired.
  void set_expiry_handler(StatusCb handler) { on_expired_ = std::move(handler); }

  void open_session(sim::Time session_timeout, StatusCb cb);

  void create(const std::string& path, const std::string& data, bool ephemeral,
              bool sequential, CreateCb cb);
  void remove(const std::string& path, StatusCb cb);
  void exists(const std::string& path, bool watch, ExistsCb cb);
  void get_children(const std::string& path, bool watch, ChildrenCb cb);

  /// Crash the client connection: pings stop, the session will expire.
  void crash() override;
  void recover() override;

 private:
  void request(std::shared_ptr<Request> req,
               std::function<void(bool, const Response*)> cb);
  void ping();

  net::RpcEndpoint endpoint_;
  net::Address service_;
  SessionId session_ = kNullSession;
  sim::Time session_timeout_ = 10.0;
  WatchHandler on_watch_;
  StatusCb on_expired_;
  sim::Time rpc_timeout_ = 1.0;
};

}  // namespace snooze::coord
