// Wire-message base type.
//
// Protocol payloads derive from MessageOf<T> (and through it from Message)
// and are carried by value-semantics shared_ptrs (a delivered message is
// immutable and may be multicast to many receivers). wire_size() feeds the
// control-traffic accounting used by the management-overhead experiment (E6).
//
// Every message carries a kind tag: the address of a static object that
// MessageOf<T> defines once per message type. msg_cast<T> compares that
// pointer and static_casts, so a role's dispatch chain costs one compare
// per test, and net/ still knows nothing of the types its users define.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>

#include "telemetry/context.hpp"

namespace snooze::net {

/// Network address of a simulated node (EP/GL/GM/LC/client/service).
using Address = std::uint32_t;

constexpr Address kNullAddress = 0;

/// Kind tag of one message type: the address of MessageOf<T>'s tag object.
using MessageKind = const void*;

struct Message {
  virtual ~Message() = default;
  /// Stable type name, used for tracing and dispatch diagnostics.
  [[nodiscard]] virtual std::string_view type() const = 0;
  /// Approximate serialized size in bytes (for overhead accounting).
  [[nodiscard]] virtual std::size_t wire_size() const { return 128; }

  /// Causal trace context; set by the sender before the message is handed to
  /// the network (a default/invalid context marks untraced traffic).
  telemetry::SpanContext ctx;

  /// Authority epoch of the sender (fencing token). Leaders stamp every
  /// authority-bearing command with the epoch of the election term (or
  /// lease) under which they act; receivers reject commands whose epoch is
  /// below the highest they have seen for that authority domain. Zero marks
  /// unfenced traffic (heartbeats, client requests, administrative paths).
  std::uint64_t epoch = 0;

  /// The concrete type's kind tag (see MessageOf).
  [[nodiscard]] MessageKind kind() const { return kind_; }

 protected:
  explicit Message(MessageKind kind) : kind_(kind) {}

 private:
  MessageKind kind_;
};

/// CRTP base of every message type: `struct Ping final : MessageOf<Ping>`.
/// Stamps the kind tag msg_cast<T> tests.
template <typename T>
struct MessageOf : Message {
  [[nodiscard]] static MessageKind static_kind() { return &kind_tag_; }

 protected:
  MessageOf() : Message(static_kind()) {}

 private:
  /// One object per message type, so its address tells the types apart.
  /// Only the address is used; the object is not const, so no constant or
  /// section merging can fold two tags into one address.
  static inline char kind_tag_ = 0;
};

using MsgPtr = std::shared_ptr<const Message>;

/// Downcast helper: returns nullptr when the payload is of a different type.
/// A tag compare plus a static_cast; T must derive from MessageOf<T>.
template <typename T>
const T* msg_cast(const Message& msg) {
  static_assert(std::is_base_of_v<MessageOf<T>, T>,
                "msg_cast<T> needs T to derive from net::MessageOf<T>");
  return msg.kind() == MessageOf<T>::static_kind() ? static_cast<const T*>(&msg)
                                                   : nullptr;
}

template <typename T>
const T* msg_cast(const MsgPtr& msg) {
  return msg ? msg_cast<T>(*msg) : nullptr;
}

/// Wire bytes the RPC correlation header (call id + flags + authority epoch)
/// adds to a request or reply leg.
constexpr std::size_t kRpcHeaderBytes = 24;

/// Envelope delivered to an endpoint.
struct Envelope {
  Address from = kNullAddress;
  Address to = kNullAddress;
  MsgPtr payload;
  /// Trace context the receiver should parent its spans under. For plain
  /// sends this mirrors payload->ctx; for RPC requests RpcEndpoint sets it to
  /// the per-attempt rpc span so retries stay distinguishable, and a reply
  /// carries the responder's context.
  telemetry::SpanContext ctx;
  /// Sender's authority epoch, mirrored from the payload so fencing checks
  /// read the envelope (replies carry 0).
  std::uint64_t epoch = 0;
  /// RPC correlation header: the caller's call id (0 marks a one-way
  /// message) and whether this leg is the reply.
  std::uint64_t rpc_id = 0;
  bool is_reply = false;

  /// Bytes on the wire: the payload plus the RPC header when one is carried.
  [[nodiscard]] std::size_t wire_size() const {
    return payload->wire_size() + (rpc_id != 0 ? kRpcHeaderBytes : 0);
  }
};

/// Receiver interface registered with the Network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void on_message(const Envelope& env) = 0;
};

}  // namespace snooze::net
