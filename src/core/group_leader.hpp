// Group Leader (GL) soft state — paper §II.
//
// The GL oversees the GMs, keeps their aggregated summaries, assigns joining
// LCs to GMs and dispatches VM submissions. A GM that wins the election
// "switches to GL mode", so the role's handlers are GroupManager members
// (core/group_leader.cpp). What they remember lives in one LeaderTerm value:
// become_leader() creates it, step_down() and fail() destroy it, and nothing
// a term learned can leak into the next one.
//
// State that outlives a term stays on the GroupManager: the epoch of its
// current or last term, the slowness scorer (cleared at every role change)
// and the dispatch/assignment cursors, which carry on from where they
// stopped when the same GM leads again. What a term counted (dispatches,
// stepdowns, reconciles) is tallied in the metrics registry, not here.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/policies.hpp"
#include "core/summary_codec.hpp"
#include "net/rpc.hpp"
#include "telemetry/context.hpp"

namespace snooze::core {

/// The GL's record of which GM (and LC) runs a VM, built from GM summaries.
struct VmOwnership {
  net::Address gm = net::kNullAddress;
  net::Address lc = net::kNullAddress;
  sim::Time since = 0.0;
};

/// Everything a GL knows during one leadership term.
struct LeaderTerm {
  /// The GL's view of a GM.
  struct GmRecord {
    GmInfo info;
    sim::Time last_summary = 0.0;
    SummaryDecoder decoder;  ///< this GM's summary stream
  };
  struct CompletedSubmission {
    net::Address lc = net::kNullAddress;
    net::Address gm = net::kNullAddress;
    sim::Time at = 0.0;  ///< last acknowledgment (placement or summary refresh)
  };
  /// A VM id claimed by two GMs on different LCs, settled on the
  /// incumbent's next applied summary.
  struct PendingConflict {
    net::Address incumbent = net::kNullAddress;
    net::Address challenger = net::kNullAddress;
    net::Address challenger_lc = net::kNullAddress;
    sim::Time since = 0.0;
  };

  std::map<net::Address, GmRecord> gms;

  // Idempotency: a submission retried because its response was lost must
  // not start a second copy of the VM. Completed results are replayed;
  // duplicates of in-flight submissions are parked and answered with the
  // first dispatch's outcome (the client's submit deadline is shorter than
  // our worst-case placement, so retries legitimately race the original).
  // The completed book is refreshed by GM summaries for live VMs and pruned
  // after SnoozeConfig::submission_book_retention for entries that stopped
  // refreshing (terminated VMs), so it stays bounded by the live fleet on
  // long-horizon runs.
  std::map<VmId, CompletedSubmission> completed_submissions;
  std::set<VmId> inflight_submissions;
  std::map<VmId, std::vector<net::Responder>> submit_waiters;

  // The cluster-wide VM -> owner inventory assembled from GM summaries, and
  // cross-GM duplicate claims pending resolution. A conflict is resolved
  // only on the incumbent's next applied summary — if it still reports the
  // VM the challenger's copy is revoked, otherwise ownership transfers — so
  // a single reordered report never kills a healthy VM.
  std::map<VmId, VmOwnership> vm_inventory;
  std::map<VmId, PendingConflict> vm_conflicts;

  /// Reconciliation window (see SnoozeConfig::gl_reconcile_window).
  bool reconciling = false;
  sim::Time reconcile_started = 0.0;
  telemetry::SpanContext reconcile_span;
};

}  // namespace snooze::core
