// Wire-message base type.
//
// Protocol payloads derive from Message and are carried by value-semantics
// shared_ptrs (a delivered message is immutable and may be multicast to many
// receivers). wire_size() feeds the control-traffic accounting used by the
// management-overhead experiment (E6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "telemetry/context.hpp"

namespace snooze::net {

/// Network address of a simulated node (EP/GL/GM/LC/client/service).
using Address = std::uint32_t;

constexpr Address kNullAddress = 0;

struct Message {
  virtual ~Message() = default;
  /// Stable type tag, used for tracing and dispatch diagnostics.
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
};

using MsgPtr = std::shared_ptr<const Message>;

/// Downcast helper: returns nullptr when the payload is of a different type.
template <typename T>
const T* msg_cast(const Message& msg) {
  return dynamic_cast<const T*>(&msg);
}

template <typename T>
const T* msg_cast(const MsgPtr& msg) {
  return msg ? dynamic_cast<const T*>(msg.get()) : nullptr;
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
