#include "coord/client.hpp"

namespace snooze::coord {

Client::Client(sim::Engine& engine, net::Network& network, net::Address service,
               std::string name)
    : sim::Actor(engine, name),
      endpoint_(engine, network, network.allocate_address(), name + ".coord"),
      service_(service) {
  endpoint_.set_message_handler([this](const net::Envelope& env) {
    const auto* event = net::msg_cast<WatchEvent>(env.payload);
    if (event != nullptr && on_watch_) on_watch_(*event);
  });
}

void Client::request(std::shared_ptr<Request> req,
                     std::function<void(bool, const Response*)> cb) {
  endpoint_.call(service_, std::move(req), rpc_timeout_,
                 [cb = std::move(cb)](bool ok, const net::MsgPtr& reply) {
                   const auto* resp = ok ? net::msg_cast<Response>(reply) : nullptr;
                   cb(resp != nullptr, resp);
                 });
}

void Client::open_session(sim::Time session_timeout, StatusCb cb) {
  session_timeout_ = session_timeout;
  auto req = std::make_shared<Request>();
  req->op = Op::kOpenSession;
  req->session_timeout = session_timeout;
  request(std::move(req), [this, cb = std::move(cb)](bool ok, const Response* resp) {
    if (ok && resp->ok) {
      session_ = resp->session;
      // Ping at a third of the timeout (ZooKeeper client convention).
      every(session_timeout_ / 3.0, [this] {
        ping();
        return has_session();
      });
      if (cb) cb(true);
    } else if (cb) {
      cb(false);
    }
  });
}

void Client::ping() {
  if (!has_session()) return;
  auto req = std::make_shared<Request>();
  req->op = Op::kPing;
  req->session = session_;
  request(std::move(req), [this](bool ok, const Response* resp) {
    if (ok && !resp->ok) {
      // Service no longer knows the session: it expired (e.g. after a long
      // partition). Surface to the owner so it can rejoin from scratch.
      session_ = kNullSession;
      if (on_expired_) on_expired_(false);
    }
  });
}

void Client::create(const std::string& path, const std::string& data, bool ephemeral,
                    bool sequential, CreateCb cb) {
  auto req = std::make_shared<Request>();
  req->op = Op::kCreate;
  req->session = session_;
  req->path = path;
  req->data = data;
  req->ephemeral = ephemeral;
  req->sequential = sequential;
  request(std::move(req), [cb = std::move(cb)](bool ok, const Response* resp) {
    if (cb) cb(ok && resp->ok, ok ? resp->path : std::string{});
  });
}

void Client::remove(const std::string& path, StatusCb cb) {
  auto req = std::make_shared<Request>();
  req->op = Op::kDelete;
  req->session = session_;
  req->path = path;
  request(std::move(req), [cb = std::move(cb)](bool ok, const Response* resp) {
    if (cb) cb(ok && resp->ok);
  });
}

void Client::exists(const std::string& path, bool watch, ExistsCb cb) {
  auto req = std::make_shared<Request>();
  req->op = Op::kExists;
  req->session = session_;
  req->path = path;
  req->watch = watch;
  request(std::move(req), [cb = std::move(cb)](bool ok, const Response* resp) {
    if (cb) cb(ok && resp->ok, ok && resp->exists);
  });
}

void Client::get_children(const std::string& path, bool watch, ChildrenCb cb) {
  auto req = std::make_shared<Request>();
  req->op = Op::kGetChildren;
  req->session = session_;
  req->path = path;
  req->watch = watch;
  request(std::move(req), [cb = std::move(cb)](bool ok, const Response* resp) {
    if (cb) cb(ok && resp->ok, ok ? resp->children : std::vector<std::string>{});
  });
}

void Client::crash() {
  session_ = kNullSession;
  endpoint_.go_down();
  sim::Actor::crash();
}

void Client::recover() {
  sim::Actor::recover();
  endpoint_.go_up();
}

}  // namespace snooze::coord
