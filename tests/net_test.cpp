// Unit tests for the simulated network: delivery/latency, fault injection
// (crashes, loss, partitions), multicast groups, traffic accounting, and the
// RPC layer (immediate + deferred replies, timeouts, crash semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/messages.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"

namespace {

using namespace snooze;
using net::Address;
using net::Envelope;
using net::MsgPtr;

struct Ping final : net::MessageOf<Ping> {
  int value = 0;
  [[nodiscard]] std::string_view type() const override { return "ping"; }
  [[nodiscard]] std::size_t wire_size() const override { return 100; }
};

struct Pong final : net::MessageOf<Pong> {
  int value = 0;
  [[nodiscard]] std::string_view type() const override { return "pong"; }
};

class Sink final : public net::Endpoint {
 public:
  std::vector<Envelope> received;
  void on_message(const Envelope& env) override { received.push_back(env); }
};

MsgPtr ping(int v = 0) {
  auto m = std::make_shared<Ping>();
  m->value = v;
  return m;
}

// msg_cast<T> must hand back the message itself for T and nothing for any
// other type, also one with T's exact layout: the kind tag decides, not the
// bytes. Both overloads; an empty MsgPtr casts to nothing.
template <typename T, typename Other>
void expect_cast_tells_apart() {
  static_assert(sizeof(T) == sizeof(Other));
  const auto msg = std::make_shared<T>();
  const MsgPtr ptr = msg;
  EXPECT_EQ(net::msg_cast<T>(ptr), msg.get());
  EXPECT_EQ(net::msg_cast<T>(*ptr), msg.get());
  EXPECT_EQ(net::msg_cast<Other>(ptr), nullptr);
  EXPECT_EQ(net::msg_cast<Other>(*ptr), nullptr);
  EXPECT_EQ(net::msg_cast<T>(MsgPtr{}), nullptr);
}

TEST(MsgCast, KindTagTellsSameLayoutTypesApart) {
  expect_cast_tells_apart<Ping, Pong>();  // one int each
  expect_cast_tells_apart<Pong, Ping>();
  expect_cast_tells_apart<core::GmHeartbeat, core::LcHeartbeat>();  // one Address each
  expect_cast_tells_apart<core::LcHeartbeat, core::GmHeartbeat>();
}

class NetworkTest : public testing::Test {
 protected:
  sim::Engine engine{1};
  net::Network network{engine, net::LatencyModel{1e-3, 0.0}};
};

TEST_F(NetworkTest, DeliversToAttachedEndpoint) {
  Sink sink;
  network.attach(10, &sink);
  network.send(20, 10, ping(7));
  engine.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].from, 20u);
  EXPECT_EQ(net::msg_cast<Ping>(sink.received[0].payload)->value, 7);
}

TEST_F(NetworkTest, DeliveryTakesLatency) {
  Sink sink;
  network.attach(10, &sink);
  network.send(20, 10, ping());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 1e-3);
}

TEST_F(NetworkTest, UnknownReceiverIsDropped) {
  network.send(20, 99, ping());
  engine.run();
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_EQ(network.stats().messages_delivered, 0u);
  EXPECT_EQ(network.stats().messages_dropped, 1u);

  // A detached address is as unknown as a never-attached one, and
  // re-attaching it delivers again.
  Sink sink;
  EXPECT_FALSE(network.attached(10));
  network.attach(10, &sink);
  EXPECT_TRUE(network.attached(10));
  network.detach(10);
  EXPECT_FALSE(network.attached(10));
  network.detach(10);  // detaching twice is harmless
  network.detach(12345);  // as is detaching an address never seen
  network.send(20, 10, ping(1));
  engine.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(network.stats().messages_dropped, 2u);
  EXPECT_EQ(network.stats().messages_delivered, 0u);

  network.attach(10, &sink);
  EXPECT_TRUE(network.attached(10));
  network.send(20, 10, ping(2));
  engine.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(net::msg_cast<Ping>(sink.received[0].payload)->value, 2);
  EXPECT_EQ(network.stats().messages_dropped, 2u);
  EXPECT_EQ(network.stats().messages_delivered, 1u);

  // Detaching while a message is in flight drops it at delivery time.
  network.send(20, 10, ping(3));
  network.detach(10);
  engine.run();
  EXPECT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(network.stats().messages_dropped, 3u);
}

TEST_F(NetworkTest, DownSenderCannotSend) {
  Sink sink;
  network.attach(10, &sink);
  network.set_node_up(20, false);
  EXPECT_FALSE(network.send(20, 10, ping()));
  engine.run();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetworkTest, DownReceiverBlackholes) {
  Sink sink;
  network.attach(10, &sink);
  network.set_node_up(10, false);
  network.send(20, 10, ping());
  engine.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(network.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, CrashWhileInFlightDropsMessage) {
  Sink sink;
  network.attach(10, &sink);
  network.send(20, 10, ping());
  // Crash the receiver before the message lands.
  engine.schedule(0.5e-3, [&] { network.set_node_up(10, false); });
  engine.run();
  EXPECT_TRUE(sink.received.empty());
}

TEST_F(NetworkTest, RecoveredNodeReceivesAgain) {
  Sink sink;
  network.attach(10, &sink);
  network.set_node_up(10, false);
  network.set_node_up(10, true);
  network.send(20, 10, ping());
  engine.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkTest, DropProbabilityOneLosesEverything) {
  Sink sink;
  network.attach(10, &sink);
  network.set_drop_probability(1.0);
  for (int i = 0; i < 10; ++i) network.send(20, 10, ping());
  engine.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(network.stats().messages_dropped, 10u);
}

TEST_F(NetworkTest, PartitionBlocksCrossTraffic) {
  Sink a, b;
  network.attach(1, &a);
  network.attach(2, &b);
  network.set_partitions({{1}, {2}});
  network.send(1, 2, ping());
  engine.run();
  EXPECT_TRUE(b.received.empty());
  // Healing the partition restores connectivity.
  network.set_partitions({});
  network.send(1, 2, ping());
  engine.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, SamePartitionCommunicates) {
  Sink a, b;
  network.attach(1, &a);
  network.attach(2, &b);
  network.set_partitions({{1, 2}, {3}});
  network.send(1, 2, ping());
  engine.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, MulticastReachesAllMembersExceptSender) {
  Sink a, b, c;
  network.attach(1, &a);
  network.attach(2, &b);
  network.attach(3, &c);
  network.join_group(7, 1);
  network.join_group(7, 2);
  network.join_group(7, 3);
  network.multicast(1, 7, ping());
  engine.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(NetworkTest, LeaveGroupStopsDelivery) {
  Sink a, b;
  network.attach(1, &a);
  network.attach(2, &b);
  network.join_group(7, 2);
  network.leave_group(7, 2);
  network.multicast(1, 7, ping());
  engine.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.group_size(7), 0u);
}

/// Appends its own address to a log shared by several endpoints, so a test
/// can see the order in which one multicast reached them.
class OrderLog final : public net::Endpoint {
 public:
  OrderLog(Address self, std::vector<Address>& log) : self_(self), log_(log) {}
  void on_message(const Envelope&) override { log_.push_back(self_); }

 private:
  Address self_;
  std::vector<Address>& log_;
};

// Group membership is a sorted set whatever the join order: a second join
// is a no-op, leaving a group one never joined changes nothing, and one
// multicast reaches each member exactly once, in ascending address order.
TEST_F(NetworkTest, MulticastDeliversOncePerMemberInAddressOrder) {
  std::vector<Address> order;
  std::vector<std::unique_ptr<OrderLog>> members;
  for (Address a = 1; a <= 6; ++a) {
    members.push_back(std::make_unique<OrderLog>(a, order));
    network.attach(a, members.back().get());
  }
  for (const Address a : {5u, 2u, 6u, 3u, 1u}) network.join_group(7, a);
  network.join_group(7, 3);   // already a member
  network.leave_group(7, 4);  // never joined
  network.leave_group(9, 4);  // unknown group
  EXPECT_EQ(network.group_size(7), 5u);

  network.multicast(4, 7, ping());  // from outside the group
  engine.run();
  EXPECT_EQ(order, (std::vector<Address>{1, 2, 3, 5, 6}));

  order.clear();
  network.leave_group(7, 5);
  network.join_group(7, 4);
  network.multicast(3, 7, ping());  // from a member: not echoed back
  engine.run();
  EXPECT_EQ(order, (std::vector<Address>{1, 2, 4, 6}));
  EXPECT_EQ(network.group_size(7), 5u);
}

TEST_F(NetworkTest, TrafficAccounting) {
  Sink sink;
  network.attach(10, &sink);
  network.send(20, 10, ping());
  network.send(20, 10, ping());
  engine.run();
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().messages_delivered, 2u);
  EXPECT_EQ(network.stats().bytes_sent, 200u);  // Ping::wire_size == 100
}

TEST_F(NetworkTest, AllocateAddressAvoidsAttached) {
  Sink sink;
  network.attach(5, &sink);
  const Address fresh = network.allocate_address();
  EXPECT_GT(fresh, 5u);
}

TEST_F(NetworkTest, JitterStaysWithinConfiguredBound) {
  net::Network jittery(engine, net::LatencyModel{1e-3, 4e-3});
  Sink sink;
  jittery.attach(10, &sink);
  std::vector<double> arrival_times;
  for (int i = 0; i < 50; ++i) {
    const double sent_at = engine.now();
    jittery.send(20, 10, ping());
    engine.run();
    ASSERT_FALSE(sink.received.empty());
    arrival_times.push_back(engine.now() - sent_at);
    sink.received.clear();
  }
  for (double latency : arrival_times) {
    EXPECT_GE(latency, 1e-3 - 1e-12);
    EXPECT_LT(latency, 5e-3);
  }
}

TEST_F(NetworkTest, ZeroJitterIsConstantLatency) {
  Sink sink;
  network.attach(10, &sink);
  network.send(20, 10, ping());
  const double t0 = engine.now();
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now() - t0, 1e-3);
}

TEST_F(NetworkTest, PartialLossDeliversTheRest) {
  Sink sink;
  network.attach(10, &sink);
  network.set_drop_probability(0.5);
  for (int i = 0; i < 500; ++i) network.send(20, 10, ping());
  engine.run();
  // ~50% delivery with wide tolerance (deterministic seed, but no tuning).
  EXPECT_GT(sink.received.size(), 150u);
  EXPECT_LT(sink.received.size(), 350u);
}

TEST_F(NetworkTest, MulticastToUnknownGroupIsNoop) {
  network.multicast(1, 999, ping());
  engine.run();
  EXPECT_EQ(network.stats().messages_sent, 0u);
}

// --- RPC ------------------------------------------------------------------------

class RpcTest : public testing::Test {
 protected:
  RpcTest()
      : server(engine, network, network.allocate_address(), "server"),
        client(engine, network, network.allocate_address(), "client") {}

  sim::Engine engine{1};
  net::Network network{engine, net::LatencyModel{1e-3, 0.0}};
  net::RpcEndpoint server;
  net::RpcEndpoint client;
};

TEST_F(RpcTest, OnewayMessageReachesHandler) {
  std::optional<int> got;
  server.set_message_handler([&](const Envelope& env) {
    got = net::msg_cast<Ping>(env.payload)->value;
  });
  client.send(server.address(), ping(5));
  engine.run();
  EXPECT_EQ(got, 5);
}

TEST_F(RpcTest, CallGetsImmediateReply) {
  server.set_request_handler([](const Envelope& env, net::Responder r) {
    auto pong = std::make_shared<Pong>();
    pong->value = net::msg_cast<Ping>(env.payload)->value + 1;
    r.respond(pong);
  });
  std::optional<int> got;
  client.call(server.address(), ping(1), 1.0, [&](bool ok, const MsgPtr& reply) {
    ASSERT_TRUE(ok);
    got = net::msg_cast<Pong>(reply)->value;
  });
  engine.run();
  EXPECT_EQ(got, 2);
}

TEST_F(RpcTest, DeferredReplyArrivesLater) {
  std::optional<net::Responder> held;
  server.set_request_handler([&](const Envelope&, net::Responder r) { held = r; });
  std::optional<bool> result;
  client.call(server.address(), ping(), 10.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.schedule(5.0, [&] {
    ASSERT_TRUE(held.has_value());
    held->respond(std::make_shared<Pong>());
  });
  engine.run();
  EXPECT_EQ(result, true);
  EXPECT_GT(engine.now(), 5.0);
}

TEST_F(RpcTest, TimeoutFiresWhenNoReply) {
  server.set_request_handler([](const Envelope&, net::Responder) {});
  std::optional<bool> result;
  client.call(server.address(), ping(), 2.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(result, false);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST_F(RpcTest, TimeoutWhenServerDown) {
  server.go_down();
  std::optional<bool> result;
  client.call(server.address(), ping(), 1.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(result, false);
}

TEST_F(RpcTest, LateReplyAfterTimeoutIsIgnored) {
  std::optional<net::Responder> held;
  server.set_request_handler([&](const Envelope&, net::Responder r) { held = r; });
  int callbacks = 0;
  client.call(server.address(), ping(), 1.0, [&](bool, const MsgPtr&) { ++callbacks; });
  engine.schedule(2.0, [&] {
    if (held) held->respond(std::make_shared<Pong>());
  });
  engine.run();
  EXPECT_EQ(callbacks, 1);  // only the timeout
}

TEST_F(RpcTest, CrashedClientNeverSeesCallback) {
  server.set_request_handler([](const Envelope&, net::Responder r) {
    r.respond(std::make_shared<Pong>());
  });
  int callbacks = 0;
  client.call(server.address(), ping(), 1.0, [&](bool, const MsgPtr&) { ++callbacks; });
  client.go_down();
  engine.run();
  EXPECT_EQ(callbacks, 0);
}

TEST_F(RpcTest, DownEndpointIgnoresRequests) {
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder) { ++handled; });
  server.go_down();
  // A fresh endpoint object is still attached but marked down: the network
  // blackholes traffic; even direct delivery must be ignored.
  std::optional<bool> result;
  client.call(server.address(), ping(), 1.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(result, false);
}

TEST_F(RpcTest, GoUpRestoresService) {
  server.set_request_handler([](const Envelope&, net::Responder r) {
    r.respond(std::make_shared<Pong>());
  });
  server.go_down();
  server.go_up();
  std::optional<bool> result;
  client.call(server.address(), ping(), 1.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(result, true);
}

TEST_F(RpcTest, ConcurrentCallsCorrelateCorrectly) {
  server.set_request_handler([](const Envelope& env, net::Responder r) {
    auto pong = std::make_shared<Pong>();
    pong->value = net::msg_cast<Ping>(env.payload)->value * 10;
    r.respond(pong);
  });
  std::vector<int> results;
  for (int i = 1; i <= 5; ++i) {
    client.call(server.address(), ping(i), 1.0, [&](bool ok, const MsgPtr& reply) {
      ASSERT_TRUE(ok);
      results.push_back(net::msg_cast<Pong>(reply)->value);
    });
  }
  engine.run();
  EXPECT_EQ(results, (std::vector<int>{10, 20, 30, 40, 50}));
}

TEST_F(RpcTest, WireSizeAccountsRpcOverhead) {
  server.set_request_handler([](const Envelope&, net::Responder r) {
    r.respond(std::make_shared<Pong>());
  });
  std::optional<bool> result;
  client.call(server.address(), ping(), 1.0,
              [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(result, true);
  // Both legs carry the 24-byte RPC header (correlation id + flags +
  // authority epoch): over the 100-byte Ping, and over the 128-byte Pong.
  EXPECT_EQ(net::kRpcHeaderBytes, 24u);
  EXPECT_EQ(network.stats().messages_sent, 2u);
  EXPECT_EQ(network.stats().bytes_sent, (24u + 100u) + (24u + 128u));
}

TEST_F(RpcTest, ResponderWithoutCallerSendsNothing) {
  net::Responder{}.respond(std::make_shared<Pong>());
  engine.run();
  EXPECT_EQ(network.stats().messages_sent, 0u);
  EXPECT_EQ(network.stats().bytes_sent, 0u);
}

// --- Per-link / per-node fault knobs -----------------------------------------

TEST_F(NetworkTest, LinkDropAffectsOnlyThatDirectedLink) {
  Sink a, b, c;
  network.attach(1, &a);
  network.attach(2, &b);
  network.attach(3, &c);
  net::LinkFaults faults;
  faults.drop = 1.0;
  network.set_link_faults(1, 2, faults);
  network.send(1, 2, ping());  // faulted link: lost
  network.send(2, 1, ping());  // reverse direction: fine
  network.send(1, 3, ping());  // other link from the same sender: fine
  engine.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_EQ(network.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, DuplicationDeliversTwiceAndCounts) {
  Sink sink;
  network.attach(10, &sink);
  net::LinkFaults faults;
  faults.duplicate = 1.0;
  network.set_link_faults(20, 10, faults);
  network.send(20, 10, ping(3));
  engine.run();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(net::msg_cast<Ping>(sink.received[1].payload)->value, 3);
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_EQ(network.stats().messages_duplicated, 1u);
  EXPECT_EQ(network.stats().messages_delivered, 2u);
}

TEST_F(NetworkTest, ReorderingLetsLaterSendOvertake) {
  Sink sink;
  network.attach(10, &sink);
  net::LinkFaults faults;
  faults.reorder = 1.0;
  faults.reorder_delay = 10.0;  // hold the message back well past base latency
  network.set_link_faults(20, 10, faults);
  network.send(20, 10, ping(1));
  network.clear_link_faults(20, 10);
  network.send(20, 10, ping(2));
  engine.run();
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(net::msg_cast<Ping>(sink.received[0].payload)->value, 2);
  EXPECT_EQ(net::msg_cast<Ping>(sink.received[1].payload)->value, 1);
}

TEST_F(NetworkTest, ExtraLatencySpikesStack) {
  Sink sink;
  network.attach(10, &sink);
  net::LinkFaults link;
  link.extra_latency = 0.3;  // the spike stacks on the base latency
  network.set_link_faults(20, 10, link);
  network.send(20, 10, ping());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 0.3 + 1e-3);
}

TEST_F(NetworkTest, ClearAllFaultsRestoresDelivery) {
  Sink sink;
  network.attach(10, &sink);
  net::LinkFaults faults;
  faults.drop = 1.0;
  network.set_link_faults(20, 10, faults);
  network.clear_all_faults();
  network.send(20, 10, ping());
  engine.run();
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkTest, MulticastSkipsDownMemberReachesLiveOnes) {
  Sink a, b, c;
  network.attach(1, &a);
  network.attach(2, &b);
  network.attach(3, &c);
  network.join_group(7, 1);
  network.join_group(7, 2);
  network.join_group(7, 3);
  network.set_node_up(3, false);
  network.multicast(1, 7, ping());
  engine.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());
}

TEST_F(NetworkTest, ReachableReflectsCrashesAndPartitions) {
  EXPECT_TRUE(network.reachable(1, 2));
  network.set_partitions({{1}});
  EXPECT_FALSE(network.reachable(1, 2));
  EXPECT_FALSE(network.reachable(2, 1));
  network.set_partitions({});
  EXPECT_TRUE(network.reachable(1, 2));
  network.set_node_up(2, false);
  EXPECT_FALSE(network.reachable(1, 2));
}

// --- RPC edge cases ----------------------------------------------------------

TEST_F(RpcTest, ResponderDoubleReplyIsNoop) {
  // Request v is answered twice, with 10v + 1 and then 10v + 2.
  std::vector<std::uint64_t> ids;
  server.set_request_handler([&](const Envelope& env, net::Responder r) {
    ids.push_back(env.rpc_id);
    const int v = net::msg_cast<Ping>(env.payload)->value;
    auto first = std::make_shared<Pong>();
    first->value = 10 * v + 1;
    r.respond(first);
    auto second = std::make_shared<Pong>();
    second->value = 10 * v + 2;
    r.respond(second);  // must be ignored at the caller
  });
  int callbacks = 0;
  std::optional<int> got;
  int second_callbacks = 0;
  std::optional<int> second_got;
  client.call(server.address(), ping(1), 5.0, [&](bool ok, const MsgPtr& reply) {
    ++callbacks;
    ASSERT_TRUE(ok);
    got = net::msg_cast<Pong>(reply)->value;
    // The first call is resolved and its slot free: this call takes it over
    // while the first call's second reply is still in flight. That stale
    // reply carries the old id and must not resolve this call.
    client.call(server.address(), ping(2), 5.0, [&](bool ok2, const MsgPtr& reply2) {
      ++second_callbacks;
      ASSERT_TRUE(ok2);
      second_got = net::msg_cast<Pong>(reply2)->value;
    });
  });
  engine.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(got, 11);
  EXPECT_EQ(second_callbacks, 1);
  EXPECT_EQ(second_got, 21);
  // The second call reused the first one's slot (the id's high half) under
  // a new generation (its low half).
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[1] >> 32, ids[0] >> 32);
  EXPECT_NE(ids[1], ids[0]);
}

TEST_F(RpcTest, PendingCallDroppedByCrashEvenAfterRecovery) {
  std::optional<net::Responder> held;
  server.set_request_handler([&](const Envelope&, net::Responder r) { held = r; });
  int callbacks = 0;
  client.call(server.address(), ping(), 30.0, [&](bool, const MsgPtr&) { ++callbacks; });
  engine.schedule(1.0, [&] {
    client.go_down();  // crash wipes pending calls...
    client.go_up();    // ...recovery must not resurrect them
  });
  engine.schedule(2.0, [&] {
    if (held) held->respond(std::make_shared<Pong>());
  });
  engine.run();
  EXPECT_EQ(callbacks, 0);
}

TEST_F(RpcTest, RetriesSucceedAfterTransientLoss) {
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    ++handled;
    r.respond(std::make_shared<Pong>());
  });
  net::LinkFaults faults;
  faults.drop = 1.0;
  network.set_link_faults(client.address(), server.address(), faults);
  // Heal the link after the first attempt's timeout but before the retry.
  engine.schedule(0.6, [&] {
    network.clear_link_faults(client.address(), server.address());
  });
  int callbacks = 0;
  std::optional<bool> result;
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = 0.5;
  client.call_with_retries(server.address(), ping(), 0.5, policy,
                           [&](bool ok, const MsgPtr&) {
                             ++callbacks;
                             result = ok;
                           });
  engine.run();
  EXPECT_EQ(result, true);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(handled, 1);
  EXPECT_GT(engine.now(), 0.5);  // the success came from a retry
}

TEST_F(RpcTest, RetriesExhaustAttemptsThenFailOnce) {
  server.go_down();
  int callbacks = 0;
  std::optional<bool> result;
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = 0.5;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             ++callbacks;
                             result = ok;
                           });
  engine.run();
  EXPECT_EQ(result, false);
  EXPECT_EQ(callbacks, 1);
  // Three 1 s timeouts plus two backoff gaps of at least base_backoff each.
  EXPECT_GE(engine.now(), 3.0 + 2 * 0.5);
}

TEST_F(RpcTest, ExplicitReplyIsNeverRetried) {
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    ++handled;
    auto rejection = std::make_shared<Pong>();
    rejection->value = -1;  // an application-level "no" is still a reply
    r.respond(rejection);
  });
  int callbacks = 0;
  net::RetryPolicy policy;
  policy.max_attempts = 5;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr& reply) {
                             ++callbacks;
                             EXPECT_TRUE(ok);
                             EXPECT_EQ(net::msg_cast<Pong>(reply)->value, -1);
                           });
  engine.run();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(callbacks, 1);
}

TEST_F(RpcTest, RetryStopsWhenClientCrashesBetweenAttempts) {
  server.go_down();
  int callbacks = 0;
  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_backoff = 0.5;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool, const MsgPtr&) { ++callbacks; });
  // Crash the client inside the first backoff window.
  engine.schedule(1.1, [&] { client.go_down(); });
  engine.run();
  EXPECT_EQ(callbacks, 0);
  // No further attempts were sent after the crash (1 request = 124 bytes).
  EXPECT_EQ(network.stats().bytes_sent, 124u);
}

TEST(RetryPolicy, DecorrelatedJitterStaysWithinBounds) {
  util::Rng rng(7);
  net::RetryPolicy policy;
  policy.base_backoff = 0.5;
  policy.max_backoff = 8.0;
  double prev = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double delay = policy.next_backoff(prev, rng);
    // delay ∈ [base, min(max_backoff, max(base, 3*prev))] — AWS-style
    // decorrelated jitter: the window depends on the previous delay, not on
    // the attempt number.
    EXPECT_GE(delay, policy.base_backoff);
    EXPECT_LE(delay, policy.max_backoff);
    EXPECT_LE(delay, std::max(policy.base_backoff, prev * 3.0) + 1e-12);
    prev = delay;
  }
}

TEST_F(RpcTest, DecorrelatedBackoffScheduleOnVirtualClock) {
  server.go_down();
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = 0.5;
  bool done = false;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             done = true;
                             EXPECT_FALSE(ok);
                           });
  engine.run();
  ASSERT_TRUE(done);
  // Three 1.0 s timeouts plus two backoffs: the first delay is exactly
  // base_backoff (prev = 0 collapses the jitter window), the second is drawn
  // from [base, 3*base]. Total virtual time ∈ [4.0, 5.0].
  EXPECT_GE(engine.now(), 4.0);
  EXPECT_LE(engine.now(), 5.0);
}

TEST_F(RpcTest, RetryDeadlineCapsOverallWait) {
  server.go_down();
  net::RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.base_backoff = 0.5;
  policy.max_total = 3.0;  // overall deadline across attempts
  bool done = false;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             done = true;
                             EXPECT_FALSE(ok);
                           });
  engine.run();
  ASSERT_TRUE(done);
  // No retry *starts* at or past the deadline; the call fails as soon as the
  // next backoff would cross it. Schedule: attempt 1 times out at 1.0,
  // backoff 0.5, attempt 2 times out at 2.5, next start >= 3.0 = deadline →
  // give up at 2.5. Without the cap, 1000 attempts would burn >1500 s.
  EXPECT_GE(engine.now(), 2.5);
  EXPECT_LE(engine.now(), 3.0 + 1.0);
}

TEST_F(RpcTest, DeadlineUnsetKeepsLegacyAttemptCount) {
  server.go_down();
  net::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff = 0.5;  // max_total stays 0: unbounded overall wait
  bool done = false;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool, const MsgPtr&) { done = true; });
  engine.run();
  ASSERT_TRUE(done);
  // All four attempts ran: 4 timeouts + 3 backoffs >= 4*1.0 + 3*0.5.
  EXPECT_GE(engine.now(), 5.5);
}

// --- Late replies vs pending retries (fail-slow, not fail-stop) ---------------

TEST_F(RpcTest, LateReplyWinsOverPendingRetry) {
  // The server is slow, not dead: it replies after the soft timeout but
  // before the scheduled retry fires. The late reply must complete the call
  // (ok=true) and cancel the retry — racing a duplicate attempt against a
  // reply that is already in flight is exactly the gray-failure bug.
  std::optional<net::Responder> held;
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    ++handled;
    held = r;
  });
  engine.schedule(1.5, [&] {
    ASSERT_TRUE(held.has_value());
    held->respond(std::make_shared<Pong>());
  });
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = 1.0;  // retry would launch at t = 2.0
  int callbacks = 0;
  std::optional<bool> result;
  double done_at = 0.0;
  client.call_with_retries(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             ++callbacks;
                             result = ok;
                             done_at = engine.now();
                           });
  engine.run();
  EXPECT_EQ(result, true);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(handled, 1) << "the pending retry fired despite the reply";
  EXPECT_LT(done_at, 2.0);  // completed on the late reply, not the retry
}

// --- Hedged calls --------------------------------------------------------------

TEST_F(RpcTest, HedgeBackupWinsWhenPrimaryStalls) {
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    ++handled;
    // The first copy stalls forever; the backup is answered immediately.
    if (handled == 2) r.respond(std::make_shared<Pong>());
  });
  net::HedgePolicy policy;
  policy.hedge_delay = 0.5;
  int callbacks = 0;
  std::optional<bool> result;
  double done_at = 0.0;
  client.call_with_hedging(server.address(), ping(), 5.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             ++callbacks;
                             result = ok;
                             done_at = engine.now();
                           });
  engine.run();
  EXPECT_EQ(result, true);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(handled, 2) << "no backup copy was sent";
  // The backup launched at the hedge delay and won well before the timeout.
  EXPECT_GT(done_at, 0.5);
  EXPECT_LT(done_at, 1.0);
}

TEST_F(RpcTest, FastPrimarySuppressesTheHedge) {
  int handled = 0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    ++handled;
    r.respond(std::make_shared<Pong>());
  });
  net::HedgePolicy policy;
  policy.hedge_delay = 0.5;
  std::optional<bool> result;
  client.call_with_hedging(server.address(), ping(), 5.0, policy,
                           [&](bool ok, const MsgPtr&) { result = ok; });
  engine.run();
  EXPECT_EQ(result, true);
  EXPECT_EQ(handled, 1) << "a backup was sent although the primary was fast";
}

TEST_F(RpcTest, HedgeTimesOutOnceWhenBothCopiesDie) {
  server.go_down();
  net::HedgePolicy policy;
  policy.hedge_delay = 0.2;
  int callbacks = 0;
  std::optional<bool> result;
  client.call_with_hedging(server.address(), ping(), 1.0, policy,
                           [&](bool ok, const MsgPtr&) {
                             ++callbacks;
                             result = ok;
                           });
  engine.run();
  EXPECT_EQ(result, false);
  EXPECT_EQ(callbacks, 1);
}

TEST_F(RpcTest, DerivedHedgeDelayIsTheP99OfTheLatencyRing) {
  // 40 replies with known, distinct service times wrap the 32-sample
  // latency ring. Then each hedged call's primary stalls and its backup is
  // answered at once: the backup must leave at the element a sort of the
  // ring puts at floor(0.99 * (n - 1)), clamped to [min_delay, max_delay].
  constexpr int kReplies = 40;
  std::vector<float> ring;  // model of the endpoint's ring, oldest first
  auto note = [&ring](double latency) {
    ring.push_back(static_cast<float>(latency));
    if (ring.size() > 32) ring.erase(ring.begin());
  };
  auto expected_delay = [&ring](const net::HedgePolicy& policy) {
    std::vector<float> sorted = ring;
    std::sort(sorted.begin(), sorted.end());
    const double p99 =
        sorted[static_cast<std::size_t>(0.99 * static_cast<double>(sorted.size() - 1))];
    return std::clamp(p99, policy.min_delay, policy.max_delay);
  };

  int served = 0;
  bool hedging = false;
  int copies = 0;
  double backup_arrival = 0.0;
  server.set_request_handler([&](const Envelope&, net::Responder r) {
    if (!hedging) {
      const double service = 0.01 * ((served++ * 7) % kReplies + 1);
      engine.schedule(service, [r]() mutable { r.respond(std::make_shared<Pong>()); });
      return;
    }
    if (++copies % 2 == 1) return;  // the primary stalls
    backup_arrival = engine.now();
    r.respond(std::make_shared<Pong>());
  });
  for (int i = 0; i < kReplies; ++i) {
    engine.schedule_at(static_cast<double>(i), [&] {
      const double sent = engine.now();
      client.call(server.address(), ping(), 1.0, [&, sent](bool ok, const MsgPtr&) {
        ASSERT_TRUE(ok);
        note(engine.now() - sent);
      });
    });
  }
  engine.run();
  ASSERT_EQ(served, kReplies);
  ASSERT_EQ(ring.size(), 32u);
  hedging = true;

  net::HedgePolicy inside;      // p99 within the default [0.02, 2.0]
  net::HedgePolicy capped;      // p99 above max_delay
  capped.max_delay = 0.25;
  net::HedgePolicy floored;     // p99 below min_delay
  floored.min_delay = 0.45;
  for (const net::HedgePolicy& policy : {inside, capped, floored}) {
    const double want = expected_delay(policy);
    const double sent = engine.now();
    std::optional<bool> result;
    client.call_with_hedging(server.address(), ping(), 5.0, policy,
                             [&](bool ok, const MsgPtr&) {
                               result = ok;
                               note(engine.now() - (sent + want));
                             });
    engine.run();
    ASSERT_EQ(result, true);
    // The backup reached the server one network hop (1 ms) after it left.
    EXPECT_NEAR(backup_arrival - 1e-3 - sent, want, 1e-9);
  }
  EXPECT_NEAR(expected_delay(inside), 0.392, 1e-6);

  // Short rings, each toward a fresh server (a sample is its service time
  // plus two 1 ms hops): one sample is the delay itself; with two, rank 0
  // is the smaller; when the maximum repeats, rank n - 2 is that maximum,
  // not the next value down.
  struct ShortRing {
    std::vector<double> services;
    double want;
  };
  for (const ShortRing& c : {ShortRing{{0.1}, 0.102}, ShortRing{{0.3, 0.1}, 0.102},
                             ShortRing{{0.3, 0.1, 0.3, 0.2}, 0.302}}) {
    net::RpcEndpoint fresh(engine, network, network.allocate_address(), "fresh");
    ring.clear();
    std::size_t next = 0;
    hedging = false;
    copies = 0;
    fresh.set_request_handler([&](const Envelope&, net::Responder r) {
      if (!hedging) {
        engine.schedule(c.services[next++],
                        [r]() mutable { r.respond(std::make_shared<Pong>()); });
        return;
      }
      if (++copies % 2 == 1) return;  // the primary stalls
      backup_arrival = engine.now();
      r.respond(std::make_shared<Pong>());
    });
    for (std::size_t i = 0; i < c.services.size(); ++i) {
      const double sent = engine.now();
      client.call(fresh.address(), ping(), 1.0, [&, sent](bool ok, const MsgPtr&) {
        ASSERT_TRUE(ok);
        note(engine.now() - sent);
      });
      engine.run();
    }
    ASSERT_EQ(ring.size(), c.services.size());
    hedging = true;
    const net::HedgePolicy policy;
    const double want = expected_delay(policy);
    EXPECT_NEAR(want, c.want, 1e-6);
    const double sent = engine.now();
    std::optional<bool> result;
    client.call_with_hedging(fresh.address(), ping(), 5.0, policy,
                             [&](bool ok, const MsgPtr&) { result = ok; });
    engine.run();
    ASSERT_EQ(result, true);
    EXPECT_NEAR(backup_arrival - 1e-3 - sent, want, 1e-9);
  }
}

// --- Timeout streaks ------------------------------------------------------------

TEST_F(RpcTest, TimeoutStreakNeverFastFailsAndIsTimedToTheNextReply) {
  server.set_request_handler([](const Envelope&, net::Responder r) {
    r.respond(std::make_shared<Pong>());
  });
  server.go_down();
  std::vector<double> fail_times;
  for (int i = 0; i < 5; ++i) {
    engine.schedule(i * 1.0, [&] {
      client.call(server.address(), ping(), 0.5, [&](bool ok, const MsgPtr&) {
        EXPECT_FALSE(ok);
        fail_times.push_back(engine.now());
      });
    });
  }
  std::optional<double> before_fifth;
  engine.schedule(4.4, [&] { before_fifth = client.breaker_open_seconds(); });
  engine.schedule(6.0, [&] { server.go_up(); });
  std::optional<bool> final_ok;
  engine.schedule(8.0, [&] {
    client.call(server.address(), ping(), 0.5,
                [&](bool ok, const MsgPtr&) { final_ok = ok; });
  });
  engine.run();
  // Every call of the streak waits out its full timeout: nothing fails fast.
  ASSERT_EQ(fail_times.size(), 5u);
  for (std::size_t i = 0; i < fail_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(fail_times[i], static_cast<double>(i) + 0.5);
  }
  EXPECT_EQ(final_ok, true);
  // The destination counts as broken from the 5th timeout (4.5) to the
  // reply that ends the streak (8.0 plus two 1 ms legs).
  EXPECT_EQ(before_fifth, 0.0);
  EXPECT_GE(client.breaker_open_seconds(), 3.5);
  EXPECT_LE(client.breaker_open_seconds(), 3.6);
}

}  // namespace
