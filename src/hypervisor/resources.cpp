#include "hypervisor/resources.hpp"

#include <algorithm>
#include <cmath>

namespace snooze::hypervisor {

namespace {
constexpr double kEps = 1e-9;
}

ResourceVector& ResourceVector::operator+=(const ResourceVector& o) {
  for (std::size_t d = 0; d < kDims; ++d) v_[d] += o.v_[d];
  return *this;
}

ResourceVector& ResourceVector::operator-=(const ResourceVector& o) {
  for (std::size_t d = 0; d < kDims; ++d) v_[d] -= o.v_[d];
  return *this;
}

ResourceVector ResourceVector::scaled(double factor) const {
  ResourceVector out = *this;
  for (std::size_t d = 0; d < kDims; ++d) out.v_[d] *= factor;
  return out;
}

bool ResourceVector::fits_within(const ResourceVector& capacity) const {
  for (std::size_t d = 0; d < kDims; ++d) {
    if (v_[d] > capacity.v_[d] + kEps) return false;
  }
  return true;
}

bool ResourceVector::any_negative() const {
  for (std::size_t d = 0; d < kDims; ++d) {
    if (v_[d] < -kEps) return true;
  }
  return false;
}

double ResourceVector::l1_norm() const {
  double sum = 0.0;
  for (double x : v_) sum += std::abs(x);
  return sum;
}

double ResourceVector::l2_norm() const {
  double sum = 0.0;
  for (double x : v_) sum += x * x;
  return std::sqrt(sum);
}

double ResourceVector::max_component() const {
  return *std::max_element(v_.begin(), v_.end());
}

double ResourceVector::dot(const ResourceVector& o) const {
  double sum = 0.0;
  for (std::size_t d = 0; d < kDims; ++d) sum += v_[d] * o.v_[d];
  return sum;
}

double ResourceVector::max_utilization(const ResourceVector& capacity) const {
  double worst = 0.0;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (capacity.v_[d] > kEps) worst = std::max(worst, v_[d] / capacity.v_[d]);
  }
  return worst;
}

}  // namespace snooze::hypervisor
