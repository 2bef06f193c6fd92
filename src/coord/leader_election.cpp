#include "coord/leader_election.hpp"

#include <algorithm>
#include <charconv>

namespace snooze::coord {

std::uint64_t epoch_from_node(const std::string& node) {
  const auto pos = node.find_last_of('_');
  if (pos == std::string::npos) return 0;
  std::uint64_t value = 0;
  std::from_chars(node.data() + pos + 1, node.data() + node.size(), value);
  return value + 1;  // epochs start at 1 so kNull (0) never wins
}

LeaderElection::LeaderElection(sim::Engine& engine, net::Network& network,
                               net::Address service, std::string name,
                               std::string election_path)
    : sim::Actor(engine, name),
      client_(engine, network, service, name + ".election"),
      election_path_(std::move(election_path)) {
  client_.set_watch_handler([this](const WatchEvent& event) {
    // Predecessor znode changed (deleted on its owner's crash/resign):
    // re-evaluate our position in the queue.
    (void)event;
    if (!leader_) evaluate();
  });
  client_.set_expiry_handler([this](bool) {
    // Our session expired (e.g. after a long stall): rejoin from scratch.
    // The server already deleted our ephemeral znode with the session.
    if (!alive()) return;
    const bool was_leader = leader_;
    leader_ = false;
    my_node_.clear();
    if (was_leader && on_demoted_) on_demoted_();
    client_.open_session(session_timeout_, [this](bool ok) {
      if (ok) create_candidate_node();
    });
  });
}

void LeaderElection::start(const std::string& data, ElectedCb on_elected) {
  data_ = data;
  on_elected_ = std::move(on_elected);
  started_ = true;
  join();
}

void LeaderElection::join() {
  client_.open_session(session_timeout_, [this](bool ok) {
    if (!ok) {
      // Service unreachable: retry after a backoff.
      after(1.0, [this] { join(); });
      return;
    }
    remove_stale_node([this] { create_candidate_node(); });
  });
}

void LeaderElection::remove_stale_node(std::function<void()> then) {
  // A previous incarnation's znode may still sit on its not-yet-expired old
  // session; remove it explicitly so a crash/recover loop never has two
  // znodes for one candidate. Best effort: on failure the old session's
  // expiry deletes it anyway.
  if (stale_node_.empty()) {
    then();
    return;
  }
  const std::string path = election_path_ + "/" + stale_node_;
  stale_node_.clear();
  client_.remove(path, [then = std::move(then)](bool) { then(); });
}

void LeaderElection::create_candidate_node() {
  if (creating_) return;       // a create round-trip is already in flight
  if (!my_node_.empty()) return;  // already own a znode — a second one would
                                  // wedge the queue (we'd watch ourselves)
  creating_ = true;
  client_.create(election_path_ + "/n_", data_, /*ephemeral=*/true, /*sequential=*/true,
                 [this](bool ok, const std::string& actual_path) {
                   creating_ = false;
                   if (!ok) {
                     after(1.0, [this] { create_candidate_node(); });
                     return;
                   }
                   const auto pos = actual_path.find_last_of('/');
                   my_node_ = actual_path.substr(pos + 1);
                   evaluate();
                 });
}

void LeaderElection::evaluate() {
  if (my_node_.empty()) return;
  client_.get_children(election_path_, /*watch=*/false,
                       [this](bool ok, const std::vector<std::string>& children) {
    if (!ok) {
      after(1.0, [this] { evaluate(); });
      return;
    }
    std::vector<std::string> sorted = children;
    std::sort(sorted.begin(), sorted.end());
    const auto me = std::find(sorted.begin(), sorted.end(), my_node_);
    if (me == sorted.end()) {
      // Our znode vanished (session hiccup): recreate and retry.
      my_node_.clear();
      create_candidate_node();
      return;
    }
    if (me == sorted.begin()) {
      if (!leader_) {
        leader_ = true;
        if (on_elected_) on_elected_(epoch_from_node(my_node_));
      }
      return;
    }
    // Watch the immediate predecessor; when it goes away, re-evaluate.
    const std::string predecessor = election_path_ + "/" + *(me - 1);
    client_.exists(predecessor, /*watch=*/true, [this](bool ok2, bool exists) {
      if (!ok2) {
        after(1.0, [this] { evaluate(); });
        return;
      }
      if (!exists) evaluate();  // raced with its deletion
    });
  });
}

void LeaderElection::resign() {
  if (!started_ || !alive()) return;
  leader_ = false;
  const std::string old = my_node_;
  my_node_.clear();
  if (old.empty()) {
    create_candidate_node();
    return;
  }
  // Delete our old znode (usually already gone server-side when a successor
  // exists) and re-enter the queue with a fresh, strictly higher sequence.
  client_.remove(election_path_ + "/" + old,
                 [this](bool) { create_candidate_node(); });
}

void LeaderElection::crash() {
  leader_ = false;
  started_ = false;
  creating_ = false;  // the in-flight create's callback dies with the client
  if (!my_node_.empty()) stale_node_ = my_node_;
  my_node_.clear();
  client_.crash();
  sim::Actor::crash();
}

void LeaderElection::recover() {
  sim::Actor::recover();
  client_.recover();
}

}  // namespace snooze::coord
