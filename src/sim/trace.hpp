// Structured event trace: components append (time, actor, kind, detail)
// records; tests and examples query or dump them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"

namespace snooze::sim {

struct TraceRecord {
  Time time;
  std::string actor;
  std::string kind;
  std::string detail;
};

class Trace {
 public:
  explicit Trace(Engine& engine) : engine_(engine) {}

  void record(std::string_view actor, std::string_view kind, std::string_view detail = {});

  [[nodiscard]] const std::vector<TraceRecord>& records() const { return records_; }

  /// Bound memory for long soak runs: keep (at least) the newest `n` records,
  /// discarding the oldest. 0 (the default) keeps everything. Trimming is
  /// amortized O(1): the buffer is allowed to grow to 2n before the oldest n
  /// records are dropped in one chunk, so `records()` may transiently hold up
  /// to 2n-1 entries — the newest n are always present. Note that `hash()`
  /// covers only retained records; determinism comparisons must use the same
  /// capacity on both runs.
  void set_max_records(std::size_t n);

  /// Records discarded so far by the ring-buffer cap.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// All records of the given kind, in time order.
  [[nodiscard]] std::vector<TraceRecord> of_kind(std::string_view kind) const;

  /// Count of records of the given kind.
  [[nodiscard]] std::size_t count(std::string_view kind) const;

  /// Time of the first record of the given kind at/after `from`, or a
  /// negative value if none exists.
  [[nodiscard]] Time first_time(std::string_view kind, Time from = 0.0) const;

  void clear() {
    records_.clear();
    dropped_ = 0;
  }

  /// Order-sensitive FNV-1a fingerprint over every record (time bits, actor,
  /// kind, detail). Two runs with the same seed must produce the same hash;
  /// chaos tests use this to assert determinism.
  [[nodiscard]] std::uint64_t hash() const;

  /// Human-readable dump (for examples / debugging).
  [[nodiscard]] std::string dump() const;

 private:
  void trim();

  Engine& engine_;
  std::vector<TraceRecord> records_;
  std::size_t max_records_ = 0;  ///< 0 = unbounded
  std::uint64_t dropped_ = 0;
};

}  // namespace snooze::sim
