// Ring-buffered, fixed-cadence time series sampled on the DES clock.
//
// The store is row-oriented: the HealthMonitor registers its columns once,
// then appends one full row per sampling tick, so every series shares the
// same timestamps and the CSV export is a plain wide table. A bounded ring
// keeps memory constant on soak runs; `dropped()` reports evicted rows so
// window queries can tell "no data" from "data aged out". The ring is two
// flat arrays, the timestamps and the rows' values, so an append into a
// full ring overwrites the oldest row and allocates nothing, and a window
// query walks timestamps that share cache lines.
//
// Determinism: the store never reads the clock, RNG or event queue itself —
// values and timestamps come from the caller — so two same-seed runs fill
// byte-identical stores and csv() output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace snooze::obs {

class TimeSeriesStore {
 public:
  /// `max_rows` bounds retained history (0 = unbounded).
  explicit TimeSeriesStore(std::size_t max_rows = 4096) : max_rows_(max_rows) {}

  /// Register a column before the first append_row(). Returns its index.
  std::size_t add_column(std::string name);

  /// Append one sampling tick: `t` must be non-decreasing and `values` must
  /// hold exactly one entry per registered column.
  void append_row(double t, const std::vector<double>& values);

  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }
  [[nodiscard]] std::size_t row_count() const { return rows_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t max_rows() const { return max_rows_; }

  /// Timestamp / value of a retained row (0 = oldest retained).
  [[nodiscard]] double time_at(std::size_t row) const { return times_[slot(row)]; }
  [[nodiscard]] double value_at(std::size_t row, std::size_t col) const {
    return values_[slot(row) * columns_.size() + col];
  }

  /// Newest value of a column; NaN when the store is empty.
  [[nodiscard]] double latest(std::size_t col) const;
  /// Newest timestamp; NaN when the store is empty.
  [[nodiscard]] double latest_time() const;

  /// Change of a (cumulative) column over the trailing `window` seconds:
  /// latest minus the value at the newest row that is at least `window` old.
  /// Falls back to the oldest retained row when history is shorter than the
  /// window (rate estimates over a young run use the span actually covered —
  /// see span_over()); NaN with fewer than two rows.
  [[nodiscard]] double delta_over(std::size_t col, double window) const;
  /// Seconds actually covered by delta_over() with the same window.
  [[nodiscard]] double span_over(double window) const;

  /// Wide CSV: header "time,<col>,..." then one row per retained sample.
  /// Fixed "%.10g" formatting keeps same-seed runs byte-identical.
  [[nodiscard]] std::string csv() const;

 private:
  /// The ring slot of retained row `row`.
  [[nodiscard]] std::size_t slot(std::size_t row) const {
    const std::size_t at = head_ + row;
    return at < rows_ ? at : at - rows_;  // only a full ring has head_ > 0
  }
  /// Index of the newest row older than (latest - window); 0 when history is
  /// shorter than the window.
  [[nodiscard]] std::size_t window_base(double window) const;

  std::vector<std::string> columns_;
  std::vector<double> times_;   ///< per slot
  std::vector<double> values_;  ///< per slot, one per column
  std::size_t head_ = 0;        ///< slot of the oldest retained row
  std::size_t rows_ = 0;        ///< retained rows
  std::size_t max_rows_;
  std::uint64_t dropped_ = 0;

  /// window_base()'s last answer for one window length, as the number of
  /// rows appended before it (dropped ones included), and the number of rows
  /// appended when it was given.
  struct WindowCursor {
    double window;
    std::uint64_t row;
    std::uint64_t appended;
  };
  mutable std::vector<WindowCursor> cursors_;
};

}  // namespace snooze::obs
