#include "coord/service.hpp"

#include <cstdio>

namespace snooze::coord {

Service::Service(sim::Engine& engine, net::Network& network, net::Address address,
                 sim::Time expiry_check_period)
    : sim::Actor(engine, "coord"), endpoint_(engine, network, address, "coord") {
  endpoint_.set_request_handler([this](const net::Envelope& env, net::Responder responder) {
    net::MsgPtr reply = handle(env);
    if (reply) responder.respond(std::move(reply));
  });
  every(expiry_check_period, [this] {
    check_expiry();
    return true;
  });
}

std::string Service::parent_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

net::MsgPtr Service::handle(const net::Envelope& env) {
  const auto* req = net::msg_cast<Request>(env.payload);
  if (req == nullptr) return nullptr;
  telemetry::count(tel(), requests_);
  auto resp = std::make_shared<Response>();
  switch (req->op) {
    case Op::kOpenSession: {
      bump("coord.sessions_opened");
      const SessionId id = next_session_++;
      Session session;
      session.owner = env.from;
      session.timeout = req->session_timeout > 0.0 ? req->session_timeout : 10.0;
      session.last_ping = now();
      sessions_[id] = session;
      resp->ok = true;
      resp->session = id;
      return resp;
    }
    case Op::kPing: {
      const auto it = sessions_.find(req->session);
      if (it == sessions_.end()) {
        resp->ok = false;  // session already expired
        return resp;
      }
      it->second.last_ping = now();
      resp->ok = true;
      resp->session = req->session;
      return resp;
    }
    case Op::kCreate:
      return handle_create(*req, env.from);
    case Op::kDelete:
      return handle_delete(*req);
    case Op::kExists: {
      resp->ok = true;
      resp->exists = nodes_.count(req->path) > 0;
      resp->path = req->path;
      if (req->watch) node_watches_[req->path].insert(env.from);
      return resp;
    }
    case Op::kGetChildren: {
      resp->ok = true;
      resp->path = req->path;
      resp->children = children_of(req->path);
      if (req->watch) child_watches_[req->path].insert(env.from);
      return resp;
    }
  }
  return resp;
}

net::MsgPtr Service::handle_create(const Request& req, net::Address /*from*/) {
  auto resp = std::make_shared<Response>();
  if (req.ephemeral && sessions_.count(req.session) == 0) {
    resp->ok = false;
    return resp;
  }
  std::string path = req.path;
  const std::string parent = parent_of(path);
  if (req.sequential) {
    // ZooKeeper semantics: the sequence counter lives on the parent znode
    // (auto-created as persistent if missing) and never repeats.
    auto& parent_node = nodes_[parent];
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%010llu",
                  static_cast<unsigned long long>(parent_node.next_sequence++));
    path += suffix;
  }
  if (nodes_.count(path) > 0) {
    resp->ok = false;
    resp->path = path;
    return resp;
  }
  Znode node;
  if (req.ephemeral) {
    node.ephemeral_owner = req.session;
    sessions_[req.session].ephemeral_nodes.insert(path);
  }
  nodes_[path] = std::move(node);
  resp->ok = true;
  resp->path = path;
  fire_node_watches(path, WatchEvent::Kind::kCreated);
  fire_child_watches(parent);
  return resp;
}

net::MsgPtr Service::handle_delete(const Request& req) {
  auto resp = std::make_shared<Response>();
  const auto it = nodes_.find(req.path);
  if (it == nodes_.end()) {
    resp->ok = false;
    return resp;
  }
  if (it->second.ephemeral_owner != kNullSession) {
    const auto sess = sessions_.find(it->second.ephemeral_owner);
    if (sess != sessions_.end()) sess->second.ephemeral_nodes.erase(req.path);
  }
  delete_node(req.path);
  resp->ok = true;
  return resp;
}

void Service::delete_node(const std::string& path) {
  nodes_.erase(path);
  fire_node_watches(path, WatchEvent::Kind::kDeleted);
  fire_child_watches(parent_of(path));
}

void Service::check_expiry() {
  std::vector<SessionId> expired;
  for (const auto& [id, session] : sessions_) {
    if (now() - session.last_ping > session.timeout) expired.push_back(id);
  }
  for (SessionId id : expired) {
    bump("coord.sessions_expired");
    expire_session(id);
  }
}

void Service::expire_session(SessionId id) {
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  const std::set<std::string> ephemerals = std::move(it->second.ephemeral_nodes);
  sessions_.erase(it);
  for (const auto& path : ephemerals) delete_node(path);
}

void Service::fire_node_watches(const std::string& path, WatchEvent::Kind kind) {
  const auto it = node_watches_.find(path);
  if (it == node_watches_.end()) return;
  const std::set<net::Address> watchers = std::move(it->second);
  node_watches_.erase(it);
  for (net::Address w : watchers) {
    bump("coord.watch_events");
    auto event = std::make_shared<WatchEvent>();
    event->path = path;
    event->kind = kind;
    endpoint_.send(w, event);
  }
}

void Service::fire_child_watches(const std::string& parent) {
  const auto it = child_watches_.find(parent);
  if (it == child_watches_.end()) return;
  const std::set<net::Address> watchers = std::move(it->second);
  child_watches_.erase(it);
  for (net::Address w : watchers) {
    bump("coord.watch_events");
    auto event = std::make_shared<WatchEvent>();
    event->path = parent;
    event->kind = WatchEvent::Kind::kChildrenChanged;
    endpoint_.send(w, event);
  }
}

bool Service::node_exists(const std::string& path) const { return nodes_.count(path) > 0; }

std::vector<std::string> Service::children_of(const std::string& path) const {
  std::vector<std::string> out;
  const std::string prefix = path == "/" ? "/" : path + "/";
  for (const auto& [p, node] : nodes_) {
    if (p.size() <= prefix.size() || p.compare(0, prefix.size(), prefix) != 0) continue;
    // Direct children only: no further '/' after the prefix.
    if (p.find('/', prefix.size()) != std::string::npos) continue;
    out.push_back(p.substr(prefix.size()));
  }
  return out;
}

}  // namespace snooze::coord
