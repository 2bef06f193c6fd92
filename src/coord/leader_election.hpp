// ZooKeeper leader-election recipe used by Snooze Group Managers.
//
// Every candidate creates an ephemeral sequential znode under the election
// path; the candidate owning the lowest sequence number is the leader.
// Non-leaders watch their immediate predecessor and re-evaluate when it
// disappears — so exactly one candidate is promoted per failure, with no
// herd effect. (Paper §II.D: "a leader election algorithm is triggered in
// order to detect the current GL ... built on top of Apache ZooKeeper".)
//
// The znode's sequence number doubles as the *election epoch* (fencing
// token): every leadership change mints a strictly higher epoch, published
// to all participants through the leader znode's name. Components stamp
// authority-bearing commands with their epoch so receivers can reject
// commands from deposed leaders.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "coord/client.hpp"

namespace snooze::coord {

/// Parse the election epoch out of a znode name ("n_0000000042" -> 43).
/// Epochs start at 1 so the null epoch (0) never wins a comparison.
[[nodiscard]] std::uint64_t epoch_from_node(const std::string& node);

class LeaderElection final : public sim::Actor {
 public:
  /// Invoked when this candidate becomes leader, with the election epoch of
  /// the new term (strictly increasing across terms and across candidates).
  using ElectedCb = std::function<void(std::uint64_t epoch)>;
  /// Invoked when a sitting leader loses its session (detected on the first
  /// successful exchange with the service, e.g. after a partition heals).
  using DemotedCb = std::function<void()>;

  LeaderElection(sim::Engine& engine, net::Network& network, net::Address service,
                 std::string name, std::string election_path = "/election");

  /// Join the election: opens a session, creates the candidate znode, and
  /// evaluates leadership. `data` (the candidate's contact address) rides the
  /// znode's create request.
  void start(const std::string& data, ElectedCb on_elected);

  /// Register the demotion hook (may be set before or after start()).
  void set_on_demoted(DemotedCb on_demoted) { on_demoted_ = std::move(on_demoted); }

  /// Voluntarily abandon the current candidacy and rejoin as a fresh
  /// candidate (new znode, strictly higher sequence). A deposed leader calls
  /// this after a StaleEpoch rejection: its old znode is gone server-side,
  /// and re-joining from scratch avoids waiting for the next ping to notice.
  void resign();

  [[nodiscard]] bool is_leader() const { return leader_; }
  /// Election epoch of this candidate's current znode (0 before joining).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_from_node(my_node_); }
  [[nodiscard]] const std::string& election_path() const { return election_path_; }
  /// Network address of the underlying coordination-client connection (so a
  /// fault injector can partition the whole node, election traffic included).
  [[nodiscard]] net::Address client_address() const { return client_.address(); }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const std::string& my_node() const { return my_node_; }

  void crash() override;
  void recover() override;

 private:
  void join();
  void create_candidate_node();
  void evaluate();
  void remove_stale_node(std::function<void()> then);

  Client client_;
  std::string election_path_;
  std::string data_;
  ElectedCb on_elected_;
  DemotedCb on_demoted_;
  std::string my_node_;  // name only (no path prefix)
  /// Candidate znode left behind by a crashed incarnation; best-effort
  /// removed on rejoin so a fast crash/recover loop cannot accumulate a
  /// second znode while the old session waits to expire.
  std::string stale_node_;
  bool leader_ = false;
  bool started_ = false;
  /// True while a create_candidate_node() round-trip is in flight. The
  /// session-expiry handler and evaluate()'s vanished-znode path can both
  /// decide to recreate the znode in the same recovery window; without the
  /// guard the candidate ends up owning two znodes on one session (flapping).
  bool creating_ = false;
  sim::Time session_timeout_ = 6.0;
};

}  // namespace snooze::coord
