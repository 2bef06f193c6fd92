// Multi-dimensional resource vectors.
//
// Snooze monitors CPU, memory and network utilization (paper §II.A); the
// consolidation problem is therefore a 3-dimensional vector bin-packing.
// Values are normalized "capacity units" (a demand of 0.25 on a host of
// capacity 1.0 uses a quarter of that dimension).
#pragma once

#include <array>
#include <cstddef>

namespace snooze::hypervisor {

class ResourceVector {
 public:
  static constexpr std::size_t kDims = 3;
  enum Dim : std::size_t { kCpu = 0, kMemory = 1, kNetwork = 2 };

  constexpr ResourceVector() : v_{} {}
  constexpr ResourceVector(double cpu, double memory, double network)
      : v_{cpu, memory, network} {}

  [[nodiscard]] constexpr double cpu() const { return v_[kCpu]; }
  [[nodiscard]] constexpr double memory() const { return v_[kMemory]; }
  [[nodiscard]] constexpr double network() const { return v_[kNetwork]; }

  [[nodiscard]] constexpr double operator[](std::size_t d) const { return v_[d]; }
  constexpr double& operator[](std::size_t d) { return v_[d]; }

  ResourceVector& operator+=(const ResourceVector& o);
  ResourceVector& operator-=(const ResourceVector& o);
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) { return a += b; }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) { return a -= b; }
  [[nodiscard]] ResourceVector scaled(double factor) const;

  friend bool operator==(const ResourceVector&, const ResourceVector&) = default;

  /// True if every component of this vector is <= the corresponding
  /// component of `capacity` (with a small epsilon for FP accumulation).
  [[nodiscard]] bool fits_within(const ResourceVector& capacity) const;

  /// True if any component is (strictly) negative beyond epsilon.
  [[nodiscard]] bool any_negative() const;

  [[nodiscard]] double l1_norm() const;
  [[nodiscard]] double l2_norm() const;
  [[nodiscard]] double max_component() const;
  [[nodiscard]] double dot(const ResourceVector& o) const;

  /// Component-wise ratio against a capacity, returning the largest ratio
  /// (i.e. the bottleneck dimension's utilization).
  [[nodiscard]] double max_utilization(const ResourceVector& capacity) const;

 private:
  std::array<double, kDims> v_;
};

}  // namespace snooze::hypervisor
