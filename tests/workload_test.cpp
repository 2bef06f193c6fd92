// Tests for the workload library: utilization traces (determinism, bounds,
// shape), VM request generators and arrival processes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "workload/arrival.hpp"
#include "workload/traces.hpp"
#include "workload/vm_generator.hpp"

namespace {

using namespace snooze;

// --- Traces -------------------------------------------------------------------

TEST(Traces, ConstantHoldsValue) {
  auto f = workload::constant(0.42);
  EXPECT_DOUBLE_EQ(f(0.0), 0.42);
  EXPECT_DOUBLE_EQ(f(1e6), 0.42);
}

TEST(Traces, ConstantClamped) {
  EXPECT_DOUBLE_EQ(workload::constant(1.7)(0.0), 1.0);
  EXPECT_DOUBLE_EQ(workload::constant(-0.5)(0.0), 0.0);
}

TEST(Traces, SinusoidalPeaksAndTroughs) {
  auto f = workload::sinusoidal(0.5, 0.3, 100.0);
  EXPECT_NEAR(f(25.0), 0.8, 1e-9);   // sin peak at quarter period
  EXPECT_NEAR(f(75.0), 0.2, 1e-9);   // trough
  EXPECT_NEAR(f(0.0), 0.5, 1e-9);    // mean at phase 0
}

TEST(Traces, SinusoidalClampedToUnitInterval) {
  auto f = workload::sinusoidal(0.9, 0.5, 10.0);
  for (double t = 0.0; t < 20.0; t += 0.37) {
    EXPECT_GE(f(t), 0.0);
    EXPECT_LE(f(t), 1.0);
  }
}

TEST(Traces, RandomStepsDeterministicAndBounded) {
  auto f = workload::random_steps(0.2, 0.8, 10.0, 42);
  auto g = workload::random_steps(0.2, 0.8, 10.0, 42);
  for (double t = 0.0; t < 200.0; t += 3.3) {
    EXPECT_DOUBLE_EQ(f(t), g(t));
    EXPECT_GE(f(t), 0.2);
    EXPECT_LE(f(t), 0.8);
  }
}

TEST(Traces, RandomStepsConstantWithinBucket) {
  auto f = workload::random_steps(0.0, 1.0, 10.0, 7);
  EXPECT_DOUBLE_EQ(f(10.0), f(19.99));
}

TEST(Traces, RandomStepsChangeAcrossBuckets) {
  auto f = workload::random_steps(0.0, 1.0, 10.0, 7);
  bool changed = false;
  for (int b = 0; b < 20 && !changed; ++b) {
    changed = std::abs(f(b * 10.0) - f((b + 1) * 10.0)) > 1e-9;
  }
  EXPECT_TRUE(changed);
}

TEST(Traces, DifferentSeedsDiffer) {
  auto f = workload::random_steps(0.0, 1.0, 10.0, 1);
  auto g = workload::random_steps(0.0, 1.0, 10.0, 2);
  bool any_diff = false;
  for (double t = 0.0; t < 100.0; t += 10.0) {
    if (std::abs(f(t) - g(t)) > 1e-12) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Traces, OnOffTakesBothLevels) {
  auto f = workload::on_off(0.1, 0.9, 100.0, 0.5, 3);
  bool saw_low = false, saw_high = false;
  for (double t = 0.0; t < 100.0; t += 1.0) {
    if (std::abs(f(t) - 0.1) < 1e-9) saw_low = true;
    if (std::abs(f(t) - 0.9) < 1e-9) saw_high = true;
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Traces, OnOffDutyCycleRatio) {
  auto f = workload::on_off(0.0, 1.0, 100.0, 0.25, 11);
  int high = 0;
  const int samples = 10000;
  for (int i = 0; i < samples; ++i) {
    if (f(i * 0.1) > 0.5) ++high;
  }
  EXPECT_NEAR(static_cast<double>(high) / samples, 0.25, 0.02);
}

TEST(Traces, JitteredStaysInBounds) {
  auto f = workload::jittered(workload::constant(0.5), 0.2, 5.0, 9);
  for (double t = 0.0; t < 100.0; t += 0.7) {
    EXPECT_GE(f(t), 0.4 - 1e-9);
    EXPECT_LE(f(t), 0.6 + 1e-9);
  }
}

// --- VM generators -----------------------------------------------------------------

TEST(VmGenerator, DefaultClassesAreSane) {
  const auto classes = workload::default_vm_classes();
  ASSERT_EQ(classes.size(), 4u);
  for (const auto& cls : classes) {
    EXPECT_GT(cls.demand.cpu(), 0.0);
    EXPECT_LE(cls.demand.max_component(), 1.0);
    EXPECT_GT(cls.memory_mb, 0.0);
  }
  // Classic 1:2:4:8 sizing.
  EXPECT_DOUBLE_EQ(classes[1].demand.cpu(), 2.0 * classes[0].demand.cpu());
  EXPECT_DOUBLE_EQ(classes[3].demand.cpu(), 8.0 * classes[0].demand.cpu());
}

TEST(VmGenerator, ClassGeneratorDrawsOnlyKnownClasses) {
  workload::ClassVmGenerator gen(workload::default_vm_classes(), 1);
  const auto classes = workload::default_vm_classes();
  for (int i = 0; i < 200; ++i) {
    const auto vm = gen.next();
    bool matches_a_class = false;
    for (const auto& cls : classes) {
      if (vm.requested == cls.demand) matches_a_class = true;
    }
    EXPECT_TRUE(matches_a_class);
  }
}

TEST(VmGenerator, SequentialUniqueIds) {
  workload::ClassVmGenerator gen(workload::default_vm_classes(), 1);
  EXPECT_EQ(gen.next().id, 1u);
  EXPECT_EQ(gen.next().id, 2u);
  EXPECT_EQ(gen.next().id, 3u);
}

TEST(VmGenerator, DeterministicForSeed) {
  workload::ClassVmGenerator a(workload::default_vm_classes(), 9);
  workload::ClassVmGenerator b(workload::default_vm_classes(), 9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next().requested, b.next().requested);
  }
}

TEST(VmGenerator, WeightsSkewDistribution) {
  // All weight on class 0.
  workload::ClassVmGenerator gen(workload::default_vm_classes(), 3,
                                 {1.0, 0.0, 0.0, 0.0});
  const auto small = workload::default_vm_classes()[0].demand;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gen.next().requested, small);
  }
}

TEST(VmGenerator, UniformStaysInRange) {
  workload::UniformVmGenerator gen(0.1, 0.4, 5);
  for (int i = 0; i < 200; ++i) {
    const auto vm = gen.next();
    for (std::size_t d = 0; d < hypervisor::ResourceVector::kDims; ++d) {
      EXPECT_GE(vm.requested[d], 0.1);
      EXPECT_LT(vm.requested[d], 0.4);
    }
  }
}

TEST(VmGenerator, CorrelatedDimensionsTrackEachOther) {
  workload::CorrelatedVmGenerator gen(0.1, 0.5, 0.1, 5);
  for (int i = 0; i < 100; ++i) {
    const auto vm = gen.next();
    const double cpu = vm.requested.cpu();
    // Each dimension within +-10% plus clamping slack of the shared size.
    EXPECT_NEAR(vm.requested.memory(), cpu, cpu * 0.25);
    EXPECT_NEAR(vm.requested.network(), cpu, cpu * 0.25);
  }
}

TEST(VmGenerator, BatchProducesRequestedCount) {
  workload::UniformVmGenerator gen(0.1, 0.3, 1);
  EXPECT_EQ(gen.batch(17).size(), 17u);
}

// --- Arrival processes --------------------------------------------------------

TEST(Arrivals, DiurnalPeaksTroughsAndFloor) {
  auto rate = workload::diurnal_rate(1.0, 0.5, 100.0);
  EXPECT_NEAR(rate(25.0), 1.5, 1e-9);  // peak at quarter period
  EXPECT_NEAR(rate(75.0), 0.5, 1e-9);  // trough at three quarters
  EXPECT_NEAR(rate(0.0), 1.0, 1e-9);
  // Amplitude larger than the base clips at zero, never negative.
  auto deep = workload::diurnal_rate(0.2, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(deep(75.0), 0.0);
}

TEST(Arrivals, FlashCrowdAddsOnlyWhileActive) {
  auto rate = workload::with_flash_crowds(workload::constant_rate(1.0),
                                          {{10.0, 4.0, 5.0}});
  EXPECT_DOUBLE_EQ(rate(9.9), 1.0);
  EXPECT_DOUBLE_EQ(rate(10.0), 5.0);  // onset inclusive
  EXPECT_DOUBLE_EQ(rate(14.9), 5.0);
  EXPECT_DOUBLE_EQ(rate(15.0), 1.0);  // end exclusive
}

TEST(Arrivals, PoissonThinningIsDeterministicAndRateMatched) {
  const auto rate = workload::constant_rate(0.5);
  const auto a = workload::poisson_arrivals(rate, 1.0, 10000.0, 7);
  const auto b = workload::poisson_arrivals(rate, 1.0, 10000.0, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, workload::poisson_arrivals(rate, 1.0, 10000.0, 8));

  // Expected count 5000; allow a generous +/- 8 % band.
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 400.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 10000.0);
}

TEST(Arrivals, ThinningTracksTimeVaryingRate) {
  // One diurnal period with the trough pinned at zero: arrivals concentrate
  // in the first half (peak at t=250), starve in the second (trough at 750).
  const auto rate = workload::diurnal_rate(0.5, 0.5, 1000.0);
  const auto times = workload::poisson_arrivals(rate, 1.0, 1000.0, 3);
  std::size_t first_half = 0, second_half = 0;
  for (const double t : times) (t < 500.0 ? first_half : second_half)++;
  EXPECT_GT(first_half, 2 * second_half);
}

}  // namespace
