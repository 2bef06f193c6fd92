#include "consolidation/aco.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

#include "util/rng.hpp"

namespace snooze::consolidation {

namespace {

/// VMs whose demand vectors are bit-identical form one class: within a pick
/// they share the fit test and eta^beta, so each is computed once per class.
/// Continuous sizes give one class per VM.
struct DemandClasses {
  std::vector<std::uint32_t> of;       ///< class of each VM
  std::vector<ResourceVector> demand;  ///< demand vector of each class

  explicit DemandClasses(const Instance& instance) : of(instance.vm_count()) {
    using Bits = std::array<std::uint64_t, ResourceVector::kDims>;
    std::map<Bits, std::uint32_t> index;
    for (std::size_t vm = 0; vm < instance.vm_count(); ++vm) {
      const ResourceVector& d = instance.vm_demands[vm];
      Bits bits{};
      for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = std::bit_cast<std::uint64_t>(d[k]);
      const auto [it, inserted] =
          index.try_emplace(bits, static_cast<std::uint32_t>(demand.size()));
      if (inserted) demand.push_back(d);
      of[vm] = it->second;
    }
  }
};

/// tau^alpha for one cycle, host-major so that a host's column is
/// contiguous. Ants fill hosts in index order, so the columns any ant has
/// reached form a prefix: a column is computed when the first ant reaches
/// it. Instances with a host per VM (E1, E9) leave most columns untouched.
class PheromonePowers {
 public:
  PheromonePowers(const std::vector<double>& tau, std::size_t vms, std::size_t hosts,
                  double alpha)
      : tau_(tau), vms_(vms), hosts_(hosts), alpha_(alpha), table_(vms * hosts) {}

  /// Forget the columns of the previous cycle.
  void reset() { ready_ = 0; }

  /// tau[vm][host]^alpha for every VM, indexed by VM. A filled column is
  /// not written again until reset().
  const double* column(std::size_t host) {
    for (; ready_ <= host; ++ready_) {
      double* col = table_.data() + ready_ * vms_;
      for (std::size_t vm = 0; vm < vms_; ++vm) {
        col[vm] = std::pow(tau_[vm * hosts_ + ready_], alpha_);
      }
    }
    return table_.data() + host * vms_;
  }

 private:
  const std::vector<double>& tau_;  ///< row-major (VM, host) pheromone
  std::size_t vms_;
  std::size_t hosts_;
  double alpha_;
  std::size_t ready_ = 0;  ///< columns [0, ready_) are filled
  std::vector<double> table_;
};

/// The ants' buffers, sized once per solve so that no pick allocates.
struct AntScratch {
  AntScratch(std::size_t vms, std::size_t classes)
      : class_pick(classes, 0), class_fits(classes), class_eta_beta(classes) {
    unassigned.reserve(vms);
    candidates.reserve(vms);
    weights.reserve(vms);
  }

  std::vector<std::size_t> unassigned;  ///< ascending VM indices
  std::vector<std::size_t> candidates;  ///< feasible VMs of the current pick
  std::vector<double> weights;          ///< their weights, same order
  std::uint64_t pick = 0;               ///< picks made so far, over all walks
  std::vector<std::uint64_t> class_pick;  ///< pick whose entries a class holds
  std::vector<char> class_fits;
  std::vector<double> class_eta_beta;
};

/// One ant's walk: fill hosts in index order, choosing the next VM among the
/// feasible ones by the probabilistic decision rule. Each weight is
/// tau^alpha (from the cycle's table) times eta^beta (from the VM's demand
/// class at this pick), appended in VM index order.
Placement construct_solution(const Instance& instance, const DemandClasses& classes,
                             PheromonePowers& tau_alpha, const AcoParams& params,
                             util::Rng& rng, AntScratch& s) {
  const std::size_t n = instance.vm_count();
  Placement placement(n);
  s.unassigned.resize(n);
  std::iota(s.unassigned.begin(), s.unassigned.end(), std::size_t{0});

  for (std::size_t host = 0; host < instance.host_count() && !s.unassigned.empty(); ++host) {
    ResourceVector residual = instance.host_capacities[host];
    const double* tau_pow = tau_alpha.column(host);
    for (;;) {
      ++s.pick;
      s.candidates.clear();
      s.weights.clear();
      for (const std::size_t vm : s.unassigned) {
        const std::uint32_t c = classes.of[vm];
        if (s.class_pick[c] != s.pick) {
          s.class_pick[c] = s.pick;
          const ResourceVector& d = classes.demand[c];
          s.class_fits[c] = d.fits_within(residual);
          if (s.class_fits[c]) {
            s.class_eta_beta[c] = std::pow(aco_heuristic(residual, d), params.beta);
          }
        }
        if (!s.class_fits[c]) continue;
        s.candidates.push_back(vm);
        double w = tau_pow[vm] * s.class_eta_beta[c];
        if (!std::isfinite(w) || w <= 0.0) w = 1e-12;
        s.weights.push_back(w);
      }
      if (s.candidates.empty()) break;
      const std::size_t pick = rng.weighted_index(s.weights);
      const std::size_t vm = s.candidates[pick < s.candidates.size() ? pick : 0];
      placement.assign(vm, static_cast<HostIndex>(host));
      residual -= instance.vm_demands[vm];
      s.unassigned.erase(std::lower_bound(s.unassigned.begin(), s.unassigned.end(), vm));
    }
  }
  return placement;
}

/// Secondary quality used to break host-count ties: total squared residual
/// of used hosts (lower = tighter packing).
double packing_slack(const Instance& instance, const Placement& placement) {
  const auto loads = placement.loads(instance);
  double slack = 0.0;
  for (std::size_t h = 0; h < loads.size(); ++h) {
    if (loads[h] == ResourceVector{}) continue;
    const ResourceVector residual = instance.host_capacities[h] - loads[h];
    slack += residual.dot(residual);
  }
  return slack;
}

}  // namespace

double aco_heuristic(const ResourceVector& residual, const ResourceVector& d) {
  // Residual after hypothetically placing d; smaller leftover = better fit.
  const ResourceVector after = residual - d;
  return 1.0 / (1.0 + after.l1_norm());
}

AcoConsolidation::AcoConsolidation(AcoParams params) : params_(params) {}

AcoResult AcoConsolidation::solve(const Instance& instance) const {
  const auto wall_start = std::chrono::steady_clock::now();

  AcoResult result;
  const std::size_t n = instance.vm_count();
  result.placement = Placement(n);
  if (n == 0) {
    result.feasible = true;
    return result;
  }

  // Pheromone matrix over (VM, host) pairs, row-major.
  const std::size_t host_count = instance.host_count();
  std::vector<double> tau(n * host_count, params_.tau0);
  PheromonePowers tau_alpha(tau, n, host_count, params_.alpha);
  const DemandClasses classes(instance);
  AntScratch scratch(n, classes.demand.size());

  util::Rng master(params_.seed);
  std::size_t best_hosts = host_count + 1;
  double best_slack = std::numeric_limits<double>::infinity();
  bool have_best = false;

  for (std::size_t cycle = 0; cycle < params_.cycles; ++cycle) {
    tau_alpha.reset();  // this cycle's tau, powered as ants reach each host
    // Ants walk one after another on the cycle's tau, each on its own RNG
    // forked from the master in ant order. A walk that completes replaces
    // the best so far if it uses fewer hosts, or as many with less slack.
    for (std::size_t a = 0; a < params_.ants; ++a) {
      util::Rng rng = master.fork();
      Placement solution =
          construct_solution(instance, classes, tau_alpha, params_, rng, scratch);
      if (!solution.complete()) continue;  // instance not packable by this walk
      const std::size_t hosts = solution.hosts_used();
      const double slack = packing_slack(instance, solution);
      if (!have_best || hosts < best_hosts || (hosts == best_hosts && slack < best_slack)) {
        best_hosts = hosts;
        best_slack = slack;
        result.placement = std::move(solution);
        have_best = true;
      }
    }

    // Pheromone update: evaporation everywhere, reinforcement on the pairs
    // of the best-so-far solution (elitist global update).
    const double keep = 1.0 - params_.rho;
    for (double& t : tau) t *= keep;
    if (have_best) {
      const double deposit =
          params_.rho * params_.q / static_cast<double>(std::max<std::size_t>(1, best_hosts));
      for (std::size_t vm = 0; vm < n; ++vm) {
        const HostIndex h = result.placement.host_of(vm);
        if (h != kUnassigned) tau[vm * host_count + static_cast<std::size_t>(h)] += deposit;
      }
    }
    result.best_per_cycle.push_back(have_best ? best_hosts : 0);
  }

  result.hosts_used = have_best ? best_hosts : 0;
  result.feasible = have_best && result.placement.feasible(instance);
  result.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace snooze::consolidation
