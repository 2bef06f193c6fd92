#include "core/policies.hpp"

#include <algorithm>
#include <limits>

namespace snooze::core {

namespace {

/// Stable partition of GM indices: those whose summary suggests room first.
std::vector<std::size_t> rank_by_feasibility(const VmDescriptor& vm,
                                             const std::vector<GmInfo>& gms,
                                             const std::vector<std::size_t>& order) {
  std::vector<std::size_t> likely;
  std::vector<std::size_t> unlikely;
  for (std::size_t i : order) {
    if (vm.requested.fits_within(gms[i].free())) {
      likely.push_back(i);
    } else {
      unlikely.push_back(i);
    }
  }
  likely.insert(likely.end(), unlikely.begin(), unlikely.end());
  return likely;
}

std::vector<Address> take(const std::vector<GmInfo>& gms,
                          const std::vector<std::size_t>& ranked, std::size_t max) {
  std::vector<Address> out;
  for (std::size_t i : ranked) {
    if (out.size() >= max) break;
    out.push_back(gms[i].gm);
  }
  return out;
}

}  // namespace

// --- dispatch ---------------------------------------------------------------

std::vector<Address> RoundRobinDispatch::candidates(const VmDescriptor& vm,
                                                    const std::vector<GmInfo>& gms,
                                                    std::size_t max) {
  if (gms.empty()) return {};
  std::vector<std::size_t> order;
  order.reserve(gms.size());
  const std::size_t start = next_++ % gms.size();
  for (std::size_t k = 0; k < gms.size(); ++k) order.push_back((start + k) % gms.size());
  return take(gms, rank_by_feasibility(vm, gms, order), max);
}

std::vector<Address> LeastLoadedDispatch::candidates(const VmDescriptor& vm,
                                                     const std::vector<GmInfo>& gms,
                                                     std::size_t max) {
  std::vector<std::size_t> order(gms.size());
  for (std::size_t i = 0; i < gms.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return gms[a].load_fraction() < gms[b].load_fraction();
  });
  return take(gms, rank_by_feasibility(vm, gms, order), max);
}

std::unique_ptr<DispatchPolicy> make_dispatch_policy(DispatchPolicyKind kind) {
  switch (kind) {
    case DispatchPolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinDispatch>();
    case DispatchPolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedDispatch>();
  }
  return std::make_unique<RoundRobinDispatch>();
}

// --- placement ---------------------------------------------------------------

Address FirstFitPlacement::choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) {
  for (const LcInfo& lc : lcs) {
    if (lc.fits(vm.requested)) return lc.lc;
  }
  return net::kNullAddress;
}

Address RoundRobinPlacement::choose(const VmDescriptor& vm,
                                    const std::vector<LcInfo>& lcs) {
  if (lcs.empty()) return net::kNullAddress;
  const std::size_t start = next_++ % lcs.size();
  for (std::size_t k = 0; k < lcs.size(); ++k) {
    const LcInfo& lc = lcs[(start + k) % lcs.size()];
    if (lc.fits(vm.requested)) return lc.lc;
  }
  return net::kNullAddress;
}

Address BestFitPlacement::choose(const VmDescriptor& vm, const std::vector<LcInfo>& lcs) {
  Address best = net::kNullAddress;
  double best_residual = std::numeric_limits<double>::infinity();
  for (const LcInfo& lc : lcs) {
    if (!lc.fits(vm.requested)) continue;
    const double residual = (lc.capacity - (lc.reserved + vm.requested)).l1_norm();
    if (residual < best_residual) {
      best_residual = residual;
      best = lc.lc;
    }
  }
  return best;
}

std::unique_ptr<PlacementPolicy> make_placement_policy(PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kFirstFit:
      return std::make_unique<FirstFitPlacement>();
    case PlacementPolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPlacement>();
    case PlacementPolicyKind::kBestFit:
      return std::make_unique<BestFitPlacement>();
  }
  return std::make_unique<FirstFitPlacement>();
}

// --- assignment ---------------------------------------------------------------

Address RoundRobinAssignment::assign(const std::vector<GmInfo>& gms) {
  if (gms.empty()) return net::kNullAddress;
  return gms[next_++ % gms.size()].gm;
}

}  // namespace snooze::core
