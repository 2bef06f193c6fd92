// Wire protocol between coordination clients and the coordination service.
//
// The service mirrors the subset of Apache ZooKeeper that Snooze's leader
// election needs: sessions kept alive by pings, ephemeral and sequential
// znodes, and one-shot watches on node existence and children.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"

namespace snooze::coord {

using SessionId = std::uint64_t;
constexpr SessionId kNullSession = 0;

enum class Op {
  kOpenSession,
  kPing,
  kCloseSession,
  kCreate,
  kDelete,
  kExists,
  kGetChildren,
  kGetData,
};

struct Request final : net::MessageOf<Request> {
  Op op = Op::kPing;
  SessionId session = kNullSession;
  std::string path;
  std::string data;
  bool ephemeral = false;
  bool sequential = false;
  bool watch = false;
  double session_timeout = 0.0;  ///< only for kOpenSession

  [[nodiscard]] std::string_view type() const override { return "coord.request"; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 48 + path.size() + data.size();
  }
};

struct Response final : net::MessageOf<Response> {
  bool ok = false;
  SessionId session = kNullSession;
  std::string path;  ///< actual path for kCreate (sequence suffix applied)
  std::string data;
  bool exists = false;
  std::vector<std::string> children;

  [[nodiscard]] std::string_view type() const override { return "coord.response"; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t n = 48 + path.size() + data.size();
    for (const auto& c : children) n += c.size() + 4;
    return n;
  }
};

/// One-way notification for a fired watch (one-shot, like ZooKeeper).
struct WatchEvent final : net::MessageOf<WatchEvent> {
  enum class Kind { kCreated, kDeleted, kChildrenChanged };
  std::string path;
  Kind kind = Kind::kDeleted;

  [[nodiscard]] std::string_view type() const override { return "coord.watch"; }
  [[nodiscard]] std::size_t wire_size() const override { return 24 + path.size(); }
};

}  // namespace snooze::coord
