#include "obs/timeseries.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/csv.hpp"

namespace snooze::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

std::size_t TimeSeriesStore::add_column(std::string name) {
  assert(rows_ == 0 && "register every column before the first append_row");
  columns_.push_back(std::move(name));
  return columns_.size() - 1;
}

void TimeSeriesStore::append_row(double t, const std::vector<double>& values) {
  assert(values.size() == columns_.size());
  assert(rows_ == 0 || t >= latest_time());
  std::size_t at = rows_;  // the next slot while the ring fills
  if (max_rows_ != 0 && rows_ == max_rows_) {
    at = head_;  // overwrite the oldest row
    head_ = head_ + 1 == max_rows_ ? 0 : head_ + 1;
    ++dropped_;
  } else {
    // A bounded ring takes its full size once; pages it never fills stay
    // untouched.
    if (rows_ == 0 && max_rows_ != 0) {
      times_.reserve(max_rows_);
      values_.reserve(max_rows_ * values.size());
    }
    ++rows_;
    times_.resize(rows_);
    values_.resize(rows_ * values.size());
  }
  times_[at] = t;
  std::copy(values.begin(), values.end(),
            values_.begin() + static_cast<std::ptrdiff_t>(at * values.size()));
}

double TimeSeriesStore::latest(std::size_t col) const {
  return rows_ == 0 ? kNaN : value_at(rows_ - 1, col);
}

double TimeSeriesStore::latest_time() const {
  return rows_ == 0 ? kNaN : time_at(rows_ - 1);
}

std::size_t TimeSeriesStore::window_base(double window) const {
  // The answer is the newest row before the latest one whose time is not
  // past the cutoff, else row 0. Rows ascend and, for one window, the cutoff
  // only moves forward, so the answer never moves back: resume from the
  // last one (cursors match on the window's bits, so a NaN finds its own).
  auto cursor = std::find_if(cursors_.begin(), cursors_.end(), [window](const WindowCursor& c) {
    return std::bit_cast<std::uint64_t>(c.window) == std::bit_cast<std::uint64_t>(window);
  });
  if (cursor == cursors_.end()) cursor = cursors_.insert(cursors_.end(), {window, 0, 0});
  const std::uint64_t appended = dropped_ + rows_;
  std::size_t base = cursor->row > dropped_ ? static_cast<std::size_t>(cursor->row - dropped_) : 0;
  if (cursor->appended == appended) return base;  // no row since the last answer
  const double cutoff = latest_time() - window;
  while (base + 2 < rows_ && !(time_at(base + 1) > cutoff)) ++base;
  cursor->row = dropped_ + base;
  cursor->appended = appended;
  return base;
}

double TimeSeriesStore::delta_over(std::size_t col, double window) const {
  if (rows_ < 2) return kNaN;
  return latest(col) - value_at(window_base(window), col);
}

double TimeSeriesStore::span_over(double window) const {
  if (rows_ < 2) return kNaN;
  return latest_time() - time_at(window_base(window));
}

std::string TimeSeriesStore::csv() const {
  std::vector<std::string> header;
  header.reserve(columns_.size() + 1);
  header.emplace_back("time");
  for (const std::string& c : columns_) header.push_back(c);
  std::string out = util::csv_row(header);
  out += '\n';
  std::vector<std::string> cells(columns_.size() + 1);
  for (std::size_t row = 0; row < rows_; ++row) {
    cells[0] = fmt(time_at(row));
    for (std::size_t col = 0; col < columns_.size(); ++col) {
      cells[col + 1] = fmt(value_at(row, col));
    }
    out += util::csv_row(cells);
    out += '\n';
  }
  return out;
}

}  // namespace snooze::obs
