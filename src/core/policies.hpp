// Two-level scheduling policies (paper §II.C).
//
// GL level: dispatch policies rank candidate GMs from the aggregated
// summaries ("summary information is not sufficient to take exact
// dispatching decisions ... a list of candidate GMs is provided ... a linear
// search is performed"). GM level: placement policies pick an LC for an
// incoming VM. The GL's round-robin assignment attaches a joining LC to a GM.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/types.hpp"
#include "net/message.hpp"

namespace snooze::core {

using net::Address;

/// The GL's view of one GM (from the latest GmSummaryDelta).
struct GmInfo {
  Address gm = net::kNullAddress;
  ResourceVector used;
  ResourceVector capacity;
  std::uint32_t lc_count = 0;
  std::uint32_t vm_count = 0;
  /// Hierarchical heartbeat aggregation: the worst LC heartbeat age under
  /// this GM at summary time. Negative until the GM's first summary.
  double worst_lc_heartbeat_age = -1.0;
  /// Flagged slow by the GL's peer-relative scorer: dispatch and assignment
  /// avoid this GM while healthy alternatives exist (it is never declared
  /// dead — a slow-but-alive leader path must not trigger failover).
  bool probation = false;

  [[nodiscard]] double load_fraction() const {
    const double cap = capacity.l1_norm();
    return cap > 0.0 ? used.l1_norm() / cap : 1.0;
  }
  [[nodiscard]] ResourceVector free() const { return capacity - used; }
};

/// The GM's view of one LC (capacity from the join, usage from monitoring).
struct LcInfo {
  Address lc = net::kNullAddress;
  ResourceVector capacity;
  ResourceVector reserved;        ///< sum of requested capacity of its VMs
  ResourceVector estimated_used;  ///< demand estimate from monitoring
  bool powered_on = true;
  bool draining = false;  ///< drained for maintenance: no new placements
  /// On probation or quarantined by the gray-failure detector: excluded from
  /// placement and relocation exactly like a draining node.
  bool probation = false;
  std::uint32_t vm_count = 0;

  [[nodiscard]] bool fits(const ResourceVector& demand) const {
    return powered_on && !draining && !probation &&
           (reserved + demand).fits_within(capacity);
  }
  [[nodiscard]] double utilization() const {
    return estimated_used.max_utilization(capacity);
  }
};

// --- GL dispatch -----------------------------------------------------------

class DispatchPolicy {
 public:
  virtual ~DispatchPolicy() = default;
  /// Ranked candidate GMs for `vm` (at most `max` entries). GMs whose
  /// summary shows insufficient free capacity are ranked last, not removed —
  /// summaries are aggregates and may hide a feasible LC.
  virtual std::vector<Address> candidates(const VmDescriptor& vm,
                                          const std::vector<GmInfo>& gms,
                                          std::size_t max) = 0;
};

class RoundRobinDispatch final : public DispatchPolicy {
 public:
  std::vector<Address> candidates(const VmDescriptor& vm, const std::vector<GmInfo>& gms,
                                  std::size_t max) override;

 private:
  std::size_t next_ = 0;
};

class LeastLoadedDispatch final : public DispatchPolicy {
 public:
  std::vector<Address> candidates(const VmDescriptor& vm, const std::vector<GmInfo>& gms,
                                  std::size_t max) override;
};

std::unique_ptr<DispatchPolicy> make_dispatch_policy(DispatchPolicyKind kind);

// --- GM placement ----------------------------------------------------------

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  /// LC to place `vm` on, or kNullAddress if no powered-on LC fits.
  virtual Address choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) = 0;
};

class FirstFitPlacement final : public PlacementPolicy {
 public:
  Address choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) override;
};

class RoundRobinPlacement final : public PlacementPolicy {
 public:
  Address choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) override;

 private:
  std::size_t next_ = 0;
};

class BestFitPlacement final : public PlacementPolicy {
 public:
  Address choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) override;
};

std::unique_ptr<PlacementPolicy> make_placement_policy(PlacementPolicyKind kind);

// --- GL assignment of LCs to GMs --------------------------------------------

class RoundRobinAssignment {
 public:
  /// GM to attach a joining LC to, or kNullAddress if no GM is known.
  Address assign(const std::vector<GmInfo>& gms);

 private:
  std::size_t next_ = 0;
};

}  // namespace snooze::core
