// Tests for the coordination service (ZooKeeper stand-in) and the leader
// election recipe: znode semantics, ephemeral/sequential nodes, session
// expiry, watches, and single-promotion failover.
#include <gtest/gtest.h>

#include <optional>

#include "coord/client.hpp"
#include "coord/leader_election.hpp"
#include "coord/service.hpp"

namespace {

using namespace snooze;

class CoordTest : public testing::Test {
 protected:
  CoordTest() : service(engine, network, network.allocate_address()) {}

  coord::Client make_client(const std::string& name) {
    return coord::Client(engine, network, service.address(), name);
  }

  sim::Engine engine{1};
  net::Network network{engine, net::LatencyModel{1e-3, 0.0}};
  coord::Service service;
};

TEST_F(CoordTest, OpenSessionSucceeds) {
  auto client = make_client("c1");
  std::optional<bool> ok;
  client.open_session(5.0, [&](bool v) { ok = v; });
  engine.run_until(1.0);
  EXPECT_EQ(ok, true);
  EXPECT_TRUE(client.has_session());
  EXPECT_EQ(service.session_count(), 1u);
}

TEST_F(CoordTest, CreatePersistentNode) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  std::optional<std::string> path;
  client.create("/x", "data", false, false,
                [&](bool ok, const std::string& p) {
                  ASSERT_TRUE(ok);
                  path = p;
                });
  engine.run_until(1.0);
  EXPECT_EQ(path, "/x");
  EXPECT_TRUE(service.node_exists("/x"));
}

TEST_F(CoordTest, DuplicateCreateFails) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  client.create("/x", "", false, false, nullptr);
  std::optional<bool> second;
  engine.schedule(0.5, [&] {
    client.create("/x", "", false, false,
                  [&](bool ok, const std::string&) { second = ok; });
  });
  engine.run_until(2.0);
  EXPECT_EQ(second, false);
}

TEST_F(CoordTest, SequentialNodesGetIncreasingSuffixes) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    client.create("/q/n_", "", false, true,
                  [&](bool ok, const std::string& p) {
                    ASSERT_TRUE(ok);
                    paths.push_back(p);
                  });
  }
  engine.run_until(2.0);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_LT(paths[0], paths[1]);
  EXPECT_LT(paths[1], paths[2]);
}

TEST_F(CoordTest, GetChildrenListsDirectChildrenOnly) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  client.create("/a/x", "", false, false, nullptr);
  client.create("/a/y", "", false, false, nullptr);
  client.create("/b/z", "", false, false, nullptr);
  std::vector<std::string> children;
  engine.schedule(0.5, [&] {
    client.get_children("/a", false,
                        [&](bool ok, const std::vector<std::string>& c) {
                          ASSERT_TRUE(ok);
                          children = c;
                        });
  });
  engine.run_until(2.0);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0], "x");
  EXPECT_EQ(children[1], "y");
}

TEST_F(CoordTest, EphemeralNodeDiesWithSessionExpiry) {
  auto client = make_client("c1");
  client.open_session(2.0, nullptr);
  engine.run_until(0.5);
  client.create("/e", "", true, false, nullptr);
  engine.run_until(1.0);
  ASSERT_TRUE(service.node_exists("/e"));
  // Crash the client: pings stop, session expires after ~2s.
  client.crash();
  engine.run_until(5.0);
  EXPECT_FALSE(service.node_exists("/e"));
  EXPECT_EQ(service.session_count(), 0u);
}

TEST_F(CoordTest, PingsKeepSessionAlive) {
  auto client = make_client("c1");
  client.open_session(2.0, [&](bool ok) {
    ASSERT_TRUE(ok);
    client.create("/e", "", true, false, nullptr);
  });
  engine.run_until(10.0);  // many timeout windows, but pings flow
  EXPECT_TRUE(service.node_exists("/e"));
}

TEST_F(CoordTest, DeleteNodeWatchFires) {
  auto owner = make_client("owner");
  auto watcher = make_client("watcher");
  owner.open_session(5.0, nullptr);
  watcher.open_session(5.0, nullptr);
  engine.run_until(0.5);
  owner.create("/w", "", false, false, nullptr);
  std::optional<coord::WatchEvent::Kind> seen;
  watcher.set_watch_handler([&](const coord::WatchEvent& e) { seen = e.kind; });
  engine.schedule(0.5, [&] { watcher.exists("/w", true, nullptr); });
  engine.schedule(1.0, [&] { owner.remove("/w", nullptr); });
  engine.run_until(3.0);
  EXPECT_EQ(seen, coord::WatchEvent::Kind::kDeleted);
}

TEST_F(CoordTest, WatchIsOneShot) {
  auto owner = make_client("owner");
  auto watcher = make_client("watcher");
  owner.open_session(5.0, nullptr);
  watcher.open_session(5.0, nullptr);
  engine.run_until(0.5);
  int events = 0;
  watcher.set_watch_handler([&](const coord::WatchEvent&) { ++events; });
  engine.schedule(0.2, [&] { watcher.exists("/w", true, nullptr); });
  engine.schedule(0.5, [&] { owner.create("/w", "", false, false, nullptr); });
  engine.schedule(1.0, [&] { owner.remove("/w", nullptr); });  // no 2nd watch set
  engine.run_until(3.0);
  EXPECT_EQ(events, 1);
}

TEST_F(CoordTest, ChildWatchFiresOnNewChild) {
  auto owner = make_client("owner");
  auto watcher = make_client("watcher");
  owner.open_session(5.0, nullptr);
  watcher.open_session(5.0, nullptr);
  engine.run_until(0.5);
  std::optional<coord::WatchEvent::Kind> seen;
  watcher.set_watch_handler([&](const coord::WatchEvent& e) { seen = e.kind; });
  watcher.get_children("/p", true, nullptr);
  engine.schedule(0.5, [&] { owner.create("/p/c", "", false, false, nullptr); });
  engine.run_until(2.0);
  EXPECT_EQ(seen, coord::WatchEvent::Kind::kChildrenChanged);
}

TEST_F(CoordTest, RemoveMissingNodeFails) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  std::optional<bool> ok;
  client.remove("/missing", [&](bool v) { ok = v; });
  engine.run_until(1.0);
  EXPECT_EQ(ok, false);
}

TEST_F(CoordTest, SequenceCountersAreIndependentPerParent) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  std::vector<std::string> paths;
  client.create("/a/n_", "", false, true,
                [&](bool, const std::string& p) { paths.push_back(p); });
  client.create("/b/n_", "", false, true,
                [&](bool, const std::string& p) { paths.push_back(p); });
  engine.run_until(2.0);
  ASSERT_EQ(paths.size(), 2u);
  // Both parents start their counters at zero.
  EXPECT_EQ(paths[0].substr(paths[0].size() - 10), "0000000000");
  EXPECT_EQ(paths[1].substr(paths[1].size() - 10), "0000000000");
}

TEST_F(CoordTest, TwoSessionsEphemeralIsolation) {
  auto a = make_client("a");
  auto b = make_client("b");
  a.open_session(2.0, [&](bool) { a.create("/ea", "", true, false, nullptr); });
  b.open_session(30.0, [&](bool) { b.create("/eb", "", true, false, nullptr); });
  engine.run_until(1.0);
  ASSERT_TRUE(service.node_exists("/ea"));
  ASSERT_TRUE(service.node_exists("/eb"));
  a.crash();  // only a's ephemeral must vanish
  engine.run_until(6.0);
  EXPECT_FALSE(service.node_exists("/ea"));
  EXPECT_TRUE(service.node_exists("/eb"));
}

TEST_F(CoordTest, ChildrenOfRootExcludeNested) {
  auto client = make_client("c1");
  client.open_session(5.0, nullptr);
  engine.run_until(0.5);
  client.create("/top", "", false, false, nullptr);
  client.create("/top/nested", "", false, false, nullptr);
  engine.run_until(1.0);
  const auto children = service.children_of("/");
  EXPECT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], "top");
}

// --- Leader election ------------------------------------------------------------

class ElectionTest : public testing::Test {
 protected:
  ElectionTest() : service(engine, network, network.allocate_address()) {}

  std::unique_ptr<coord::LeaderElection> make_candidate(const std::string& name) {
    return std::make_unique<coord::LeaderElection>(engine, network, service.address(),
                                                   name);
  }

  sim::Engine engine{1};
  net::Network network{engine, net::LatencyModel{1e-3, 0.0}};
  coord::Service service;
};

TEST_F(ElectionTest, FirstCandidateBecomesLeader) {
  auto a = make_candidate("a");
  bool elected = false;
  a->start("addr-a", [&](std::uint64_t) { elected = true; });
  engine.run_until(2.0);
  EXPECT_TRUE(elected);
  EXPECT_TRUE(a->is_leader());
}

TEST_F(ElectionTest, SecondCandidateWaits) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  a->start("addr-a", nullptr);
  engine.run_until(1.0);
  bool b_elected = false;
  b->start("addr-b", [&](std::uint64_t) { b_elected = true; });
  engine.run_until(3.0);
  EXPECT_TRUE(a->is_leader());
  EXPECT_FALSE(b->is_leader());
  EXPECT_FALSE(b_elected);
}

TEST_F(ElectionTest, SuccessorPromotedOnLeaderCrash) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  a->start("addr-a", nullptr);
  engine.run_until(1.0);
  b->start("addr-b", nullptr);
  engine.run_until(2.0);
  ASSERT_TRUE(a->is_leader());
  a->crash();  // session expires, znode vanishes, b's watch fires
  engine.run_until(15.0);
  EXPECT_TRUE(b->is_leader());
}

TEST_F(ElectionTest, OnlyOneLeaderAmongMany) {
  std::vector<std::unique_ptr<coord::LeaderElection>> candidates;
  for (int i = 0; i < 5; ++i) {
    candidates.push_back(make_candidate("c" + std::to_string(i)));
    candidates.back()->start("addr", nullptr);
  }
  engine.run_until(3.0);
  int leaders = 0;
  for (const auto& c : candidates) leaders += c->is_leader() ? 1 : 0;
  EXPECT_EQ(leaders, 1);
}

TEST_F(ElectionTest, CascadedFailuresPromoteInOrder) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  auto c = make_candidate("c");
  a->start("addr-a", nullptr);
  engine.run_until(0.5);
  b->start("addr-b", nullptr);
  engine.run_until(1.0);
  c->start("addr-c", nullptr);
  engine.run_until(2.0);
  a->crash();
  engine.run_until(15.0);
  ASSERT_TRUE(b->is_leader());
  EXPECT_FALSE(c->is_leader());
  b->crash();
  engine.run_until(30.0);
  EXPECT_TRUE(c->is_leader());
}

TEST_F(ElectionTest, MiddleCandidateCrashDoesNotPromoteTail) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  auto c = make_candidate("c");
  a->start("addr-a", nullptr);
  engine.run_until(0.5);
  b->start("addr-b", nullptr);
  engine.run_until(1.0);
  c->start("addr-c", nullptr);
  engine.run_until(2.0);
  b->crash();  // c's watched predecessor vanishes but a still leads
  engine.run_until(15.0);
  EXPECT_TRUE(a->is_leader());
  EXPECT_FALSE(c->is_leader());
}

TEST_F(ElectionTest, ElectionEpochsAreMonotoneAcrossPromotions) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  std::uint64_t epoch_a = 0;
  std::uint64_t epoch_b = 0;
  a->start("addr-a", [&](std::uint64_t e) { epoch_a = e; });
  engine.run_until(1.0);
  b->start("addr-b", [&](std::uint64_t e) { epoch_b = e; });
  engine.run_until(2.0);
  // First sequential znode has sequence 0; epochs start at 1 so the null
  // epoch (0, unfenced) can never outrank a real term.
  EXPECT_EQ(epoch_a, 1u);
  EXPECT_EQ(a->epoch(), 1u);
  a->crash();
  engine.run_until(15.0);
  ASSERT_TRUE(b->is_leader());
  EXPECT_EQ(epoch_b, 2u);
  EXPECT_GT(epoch_b, epoch_a);
}

TEST_F(ElectionTest, IsolatedLeaderDemotedAndRejoinsWithHigherEpoch) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  std::uint64_t last_epoch_a = 0;
  a->start("addr-a", [&](std::uint64_t e) { last_epoch_a = e; });
  engine.run_until(1.0);
  b->start("addr-b", nullptr);
  engine.run_until(2.0);
  ASSERT_TRUE(a->is_leader());
  bool demoted = false;
  a->set_on_demoted([&] { demoted = true; });

  // Cut a's coordination client off: its session expires server-side and b
  // is promoted; a only learns of the expiry once the partition heals.
  network.set_partitions({{a->client_address()}});
  engine.run_until(20.0);
  ASSERT_TRUE(b->is_leader());
  network.set_partitions({});
  engine.run_until(40.0);
  EXPECT_TRUE(demoted);
  EXPECT_FALSE(a->is_leader());
  EXPECT_TRUE(b->is_leader());
  // a re-entered the queue with a fresh znode: exactly two candidates, and
  // a's new epoch (would-be, as next in line) is strictly above b's term.
  EXPECT_EQ(service.children_of("/election").size(), 2u);
  EXPECT_GT(a->epoch(), b->epoch());
}

TEST_F(ElectionTest, CrashRecoverFlappingLeavesOneZnodePerCandidate) {
  // Regression: a candidate flapping through crash()/recover() used to leave
  // a second candidate znode behind when the recovery raced the expiry of
  // its previous session (both the expiry handler and evaluate()'s
  // vanished-znode path issued a create). Exactly one znode per candidate
  // must survive any number of flaps.
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  a->start("addr-a", nullptr);
  b->start("addr-b", nullptr);
  engine.run_until(2.0);
  for (int round = 0; round < 10; ++round) {
    a->crash();
    // Vary the in-crash dwell so recovery sometimes races the old session's
    // expiry (timeout 6 s) and sometimes follows it.
    engine.run_until(engine.now() + (round % 2 == 0 ? 1.0 : 7.0));
    a->recover();
    a->start("addr-a", nullptr);
    engine.run_until(engine.now() + 4.0);
  }
  engine.run_until(engine.now() + 15.0);  // let stragglers expire
  const auto children = service.children_of("/election");
  EXPECT_EQ(children.size(), 2u)
      << "candidate znodes leaked across crash/recover flaps";
  int leaders = (a->is_leader() ? 1 : 0) + (b->is_leader() ? 1 : 0);
  EXPECT_EQ(leaders, 1);
}

TEST_F(ElectionTest, RecoveredCandidateRejoinsAsFollower) {
  auto a = make_candidate("a");
  auto b = make_candidate("b");
  a->start("addr-a", nullptr);
  engine.run_until(1.0);
  b->start("addr-b", nullptr);
  engine.run_until(2.0);
  a->crash();
  engine.run_until(15.0);
  ASSERT_TRUE(b->is_leader());
  a->recover();
  a->start("addr-a", nullptr);
  engine.run_until(20.0);
  EXPECT_TRUE(b->is_leader());
  EXPECT_FALSE(a->is_leader());
}

}  // namespace
