// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, sequence) order, so
// two events scheduled for the same instant fire in scheduling order. All
// components of the simulated Snooze deployment (network, coordination
// service, controllers) run on one engine; virtual time is in seconds.
//
// The event queue is an indexed calendar queue sized for 100k-LC topologies:
//
//   - near events (within 64 s of the drain cursor) live in fixed-width
//     time buckets of 16-byte POD entries. A bucket the drain cursor has
//     not reached yet is an unordered bag: a schedule appends in O(1) and a
//     cancel removes in O(1) through the entry's bag index (a head bump or
//     a swap-remove). The bag is sorted by (time, seq) once, when peek()
//     first reaches it (the ladder queue's lazy sort, applied per bucket);
//     from then until it empties it is a sorted ring whose pop is a
//     head-index bump. Ordering work is thus paid once per bucket, not
//     once per insert: a synchronized heartbeat or monitoring fan-out lands
//     thousands of deliveries with random link jitter in a few buckets, in
//     no particular (time, seq) order, and a bucket kept sorted on insert
//     would shift half its entries for each of them;
//   - a bag of kRadixMinEntries or more is sorted by an LSD radix over the
//     bits in which its times differ (non-negative doubles order as their
//     bit patterns, −0.0 folded onto 0.0), smaller bags by std::sort. The
//     radix is stable, so equal times keep bag order, which is seq order
//     unless a swap-remove moved an entry forward; a scan then finds the
//     equal-time runs whose keys are out of order and radix-sorts each by
//     seq — linear passes even for a 30k-entry run of synchronized ticks;
//   - the bucket geometry is population-adaptive: the 64 s window is carved
//     into more (narrower) buckets as the pending-event count grows, keeping
//     per-bucket occupancy — and thus sort and insert cost — roughly
//     constant from 100 to 100k LCs. Rescaling rehashes the near entries but
//     never reorders anything: pop order is a pure function of (time, seq),
//     not of the geometry;
//   - far events overflow into an ordered map and are promoted in bulk as
//     the cursor advances; the far map's minimum time is cached so the
//     per-pop promotion check is a float compare, not a tree walk;
//   - events live in a slab of pooled slots, split hot/cold: the queue paths
//     touch only the 32-byte bookkeeping records. A slot's kind byte says
//     what firing it runs: a closure from the cold std::function array
//     (schedule()), a periodic timer's tick, or a registered target called
//     with a 32-bit argument (schedule_call(); a Network delivery is its
//     (target, slab index)). Ticks and calls store no closure and never
//     touch the cold array. EventId encodes (slot, generation), making
//     cancel() a true removal of any kind — through the bag index kept in
//     the slot, or, in a bucket already being drained, a binary search by
//     (time, seq) and a shorter-side shift — so no tombstone ever reaches
//     the hot pop path;
//   - periodic timers (every()) are stored once, in a table whose entries
//     never move, together with the owner's liveness token; each tick is a
//     typed event carrying the table index, so the steady-state control
//     loop re-arms its heartbeat and monitoring timers without allocating.
//
// Determinism contract: events pop in exactly (time ascending, scheduling
// sequence ascending) order — byte-identical to the original binary-heap
// engine, which the golden-trace suite (tests/golden_trace_test.cpp) pins.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace snooze::sim {

/// Virtual time in seconds since simulation start.
using Time = double;

constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Handle identifying a scheduled event; usable to cancel it. Encodes the
/// slab slot and a generation counter, so handles of fired/cancelled events
/// are recognized as stale. 0 is never a valid handle.
using EventId = std::uint64_t;

class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Time delay, std::function<void()> fn);

  /// Schedule `fn` at absolute virtual time `t` (t >= now()).
  EventId schedule_at(Time t, std::function<void()> fn);

  /// Receiver of typed events: fn(self, arg) runs when one fires.
  using TargetFn = void (*)(void* self, std::uint32_t arg);
  using TargetId = std::uint16_t;

  /// Register a receiver for schedule_call(). The engine keeps (self, fn)
  /// for its whole life and has no way to forget them, so it must outlive
  /// `self`, as it must outlive every endpoint: a Network registers itself
  /// once and is destroyed before its engine.
  TargetId add_target(void* self, TargetFn fn);

  /// Schedule a typed event: `target`'s fn(self, arg), `delay` seconds from
  /// now (delay >= 0). The same (time, seq), stats and cancel() as
  /// schedule(), but no closure is stored or called.
  EventId schedule_call(Time delay, TargetId target, std::uint32_t arg);

  /// Cancel a pending event: the entry is physically removed from the queue
  /// and its slot recycled. Returns false if it already fired or was
  /// cancelled (stale handles are detected via the generation counter).
  bool cancel(EventId id);

  /// Periodic timer: run `fn` every `period` seconds, the first tick one
  /// period from now, until it returns false or `token` (the owner's
  /// liveness flag; null for a timer no owner can end) reads false. The
  /// engine stores `fn` and `token` once in its timer table; each tick is a
  /// typed event carrying the table index, so a steady-state tick allocates
  /// nothing. A tick runs `fn` only while `*token` holds and ends the timer
  /// when `fn` returns false or `*token` no longer holds after it (`fn` may
  /// crash its own owner). Otherwise the next tick is scheduled at now() +
  /// period, with a sequence number taken after every event `fn` itself
  /// scheduled — the same (time, seq) a closure rescheduling itself at the
  /// end of each tick would get. Ticks cannot be cancelled. An ended timer
  /// releases `fn` and `token` and gives its table entry back.
  void every(Time period, std::function<bool()> fn, std::shared_ptr<const bool> token);

  /// Timers registered with every() that have not ended yet.
  [[nodiscard]] std::size_t live_timers() const {
    return timers_.size() - free_timers_.size();
  }
  /// Entries of the timer table. Ended timers' entries are reused, so this
  /// never exceeds the high-water mark of live_timers().
  [[nodiscard]] std::size_t timer_slots() const { return timers_.size(); }

  /// Run until the event queue is empty or `until` is reached (whichever is
  /// first). Returns the number of events processed.
  std::size_t run_until(Time until);

  /// Run until the queue drains completely.
  std::size_t run() { return run_until(kTimeInfinity); }

  /// Abort the current run_until loop after the current event returns.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const { return pending_; }
  [[nodiscard]] std::size_t processed_events() const { return processed_; }

  /// Physical entries held by the queue (buckets + overflow). Always equals
  /// pending_events(): cancellation removes entries instead of tombstoning
  /// them. The leak tests assert on exactly this equality.
  [[nodiscard]] std::size_t queued_entries() const;

  /// Current calendar geometry (population-adaptive; see maybe_retune()).
  [[nodiscard]] std::size_t bucket_count() const { return num_buckets_; }
  [[nodiscard]] double bucket_width() const { return width_; }

  /// Queue/throughput counters. Cheap enough to maintain unconditionally;
  /// telemetry mirrors them into the metrics registry on demand
  /// (Telemetry::sample_engine) so sampling never schedules events.
  struct Stats {
    std::uint64_t scheduled = 0;    ///< total schedule()/schedule_at() calls
    std::uint64_t fired = 0;        ///< events whose callback ran
    std::uint64_t cancelled = 0;    ///< events removed by cancel()
    std::uint64_t overflowed = 0;   ///< events that entered the far map
    std::uint64_t promoted = 0;     ///< far events moved into near buckets
    std::uint64_t resizes = 0;      ///< bucket-geometry retunes (grow + shrink)
    std::size_t peak_pending = 0;   ///< high-water mark of pending events
    double run_wall_seconds = 0.0;  ///< wall-clock time spent inside run_until
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Fired events per wall-clock second across all run_until calls so far
  /// (0 before the first run).
  [[nodiscard]] double events_per_second() const {
    return stats_.run_wall_seconds > 0.0
               ? static_cast<double>(stats_.fired) / stats_.run_wall_seconds
               : 0.0;
  }

  /// The engine-global RNG; fork() it for per-component streams.
  util::Rng& rng() { return rng_; }

 private:
  // Calendar geometry: a fixed 64 s near window carved into a power-of-two
  // number of buckets. The count scales with the pending-event population
  // (kMinBuckets at <1k pending up to kMaxBuckets at 100k-LC scale), so
  // per-bucket occupancy stays O(1): heartbeats, RPC timeouts and retry
  // backoffs all land in buckets; only long-lived timers (VM lifetimes,
  // soak horizons) take the far map. Both window and widths are powers of
  // two, so bucket_of() is an exact scale-and-truncate — no rounding drift
  // across rescales.
  static constexpr double kWindowSeconds = 64.0;
  static constexpr std::size_t kMinBuckets = std::size_t{1} << 14;  // 1/256 s
  /// The cap is where the table stops paying for itself: narrower buckets
  /// pull distinct instants apart (worth +6-14% events/s at 25k-100k LCs
  /// going 2^19 → 2^20, measured under the sorted-ring buckets), but past
  /// 2^20 the bucket-header array and occupancy bitmap outgrow cache and
  /// 2^21 measures flat-to-worse at 50k-100k. Same-instant events can never
  /// be split by geometry, so beyond the cap occupancy is bounded by the
  /// clustering the workload itself dictates.
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;  // 1/16384 s
  /// Retune cadence: geometry is re-evaluated every this many queue
  /// operations (schedules + pops + cancels) — deterministic, no clocks.
  static constexpr std::uint32_t kRetuneInterval = 1024;
  /// Target ~16 buckets per pending event; growth/shrink trigger only on a
  /// >=4x mismatch so the geometry never thrashes around a boundary.
  static constexpr std::size_t kBucketsPerEvent = 16;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Bags this large or larger are radix-sorted; smaller ones std::sort-ed.
  /// On one jittered bucket the radix overtakes std::sort between 64 and
  /// 128 entries and is 2.5x faster at 256 (4-vCPU Xeon VM, gcc 12 -O2).
  /// At 256, every chaos_day bag (86 entries at most) keeps std::sort, and
  /// e3_paper's large bags (up to 1.3k) and fleet_10k's (up to 40k) take
  /// the radix: the benchmark runs both sides of the choice.
  static constexpr std::size_t kRadixMinEntries = 256;
  /// Digit width of a radix pass: 2^11 counters (8 KiB) fit in L1, and the
  /// times in a 61 us bucket at t ~ 100 s differ in about 32 bits, so three
  /// passes.
  static constexpr unsigned kRadixBits = 11;

  /// Bucket element, packed to 16 bytes (4 per cache line): the slot index
  /// shares a word with the sequence number. Slots are bounded far below
  /// 2^24 concurrent events in practice; seq gets the remaining 40 bits
  /// (~10^12 events). For equal times the key compares exactly like seq —
  /// seqs are unique, so the low slot bits never decide an ordering.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  struct Entry {
    Time time;
    std::uint64_t key;  ///< seq << kSlotBits | slot
  };
  [[nodiscard]] static std::uint32_t entry_slot(const Entry& e) {
    return static_cast<std::uint32_t>(e.key & kSlotMask);
  }
  /// Strict (time, seq) order — the engine-wide determinism contract. A
  /// closure object rather than a function, so std::sort and the binary
  /// searches inline the comparison instead of calling through a pointer.
  static constexpr auto entry_before = [](const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  };

  /// One calendar bucket; its live entries are [head, v.size()). Until the
  /// drain cursor reaches it, they form an unordered bag: inserts append
  /// and cancels remove through the entry's Slot::bag_index — a head bump
  /// for the oldest entry, a swap-remove otherwise — all O(1) whatever
  /// order a jittered fan-out schedules in. peek() sorts it once, when it
  /// becomes the first occupied bucket; from then until it empties it is a
  /// sorted ring — ascending by (time, seq), pop a head-index bump, inserts
  /// (events scheduled into the bucket being drained) a push_back or a
  /// binary-search insert, cancels a binary search plus shorter-side
  /// shift. An emptied bucket reverts to an empty bag.
  struct Bucket {
    std::vector<Entry> v;
    std::uint32_t head = 0;  ///< first live element
    bool sorted = false;     ///< sorted ring (being drained) vs unordered bag
    [[nodiscard]] bool empty() const { return head == v.size(); }
    [[nodiscard]] std::size_t size() const { return v.size() - head; }
    [[nodiscard]] const Entry& front() const { return v[head]; }
  };

  enum class SlotState : std::uint8_t { kFree, kNear, kFar };

  /// What firing an event runs.
  enum class EventKind : std::uint8_t {
    kClosure,  ///< fns_[slot] (schedule(), schedule_at())
    kTick,     ///< fire_timer(arg) (every())
    kCall,     ///< targets_[target].fn(self, arg) (schedule_call())
  };

  /// Hot per-event bookkeeping (32 bytes): everything the queue paths touch.
  /// A closure lives in the parallel cold array fns_ and is only accessed on
  /// schedule and fire; a typed event is all here — its kind and target in
  /// the padding after `state`, its argument in the word a free slot uses
  /// for its free-list link. A near entry in a bag is found by its
  /// bag_index; in a sorted bucket (time, seq) re-locates it by binary
  /// search, so sorting never has to rewrite indices.
  struct Slot {
    Time time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    union {
      std::uint32_t next_free = kNoSlot;  ///< kFree: the next free slot
      std::uint32_t arg;                  ///< kTick, kCall: the argument
    };
    SlotState state = SlotState::kFree;
    EventKind kind = EventKind::kClosure;
    TargetId target = 0;          ///< kCall: index into targets_
    std::uint32_t bag_index = 0;  ///< position in its bucket's bag (kNear, unsorted)
  };

  /// A near entry's time as an integer that orders like it: the bits of a
  /// non-negative double, sign cleared so −0.0 (which t >= now() admits at
  /// t = 0) keys as 0.0.
  [[nodiscard]] static std::uint64_t time_bits(Time t) {
    return std::bit_cast<std::uint64_t>(t) & ~(std::uint64_t{1} << 63);
  }

  [[nodiscard]] std::uint64_t bucket_of(Time t) const {
    const double scaled = t * inv_width_;
    // Clamp anything beyond the representable horizon (including +inf) into
    // the far map; the cast below would otherwise be UB.
    if (scaled >= 9.2e18) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(scaled);
  }

  std::uint32_t alloc_slot();
  /// Give `slot` a sequence number and queue it at `t`; returns its handle.
  EventId enqueue(std::uint32_t slot, Time t);
  /// Queue a typed event `delay` seconds from now.
  EventId schedule_typed(Time delay, EventKind kind, TargetId target, std::uint32_t arg);
  void free_slot(std::uint32_t slot);
  void mark_occupied(std::uint64_t abs_bucket);
  void clear_occupied(std::uint64_t abs_bucket);
  // Bag / sorted-ring primitives over one bucket.
  void bucket_push(Bucket& bucket, const Entry& entry);
  static void bucket_pop_front(Bucket& bucket);
  void bucket_cancel(Bucket& bucket, const Entry& entry);
  /// Move far events whose bucket is now inside the near window.
  void promote_far();
  /// Recompute the cached minimum of the far map (time and bucket) after any
  /// mutation of its front or of the bucket width.
  void update_far_min();
  /// Re-evaluate the bucket geometry against the pending population
  /// (amortized: called every kRetuneInterval queue operations).
  void maybe_retune();
  /// Rebuild the near buckets under a new bucket count (same 64 s window).
  void resize_buckets(std::size_t new_count);
  /// Order a bag by (time, seq): std::sort below kRadixMinEntries, else a
  /// radix by time and, if a swap-remove broke seq order, a tie repair.
  void sort_bag(Bucket& bucket);
  /// Stable LSD radix sort of [first, first + n) by key_of(entry), over the
  /// bits set in `differ` (those in which the entries' keys differ).
  template <typename KeyOf>
  void radix_sort(Entry* first, std::size_t n, std::uint64_t differ, KeyOf key_of);
  /// Locate the next pending event without consuming it, sorting the first
  /// occupied bucket if it is still a bag. Returns true for a near winner
  /// (then the front of buckets_[abs_bucket]) and false for a far one.
  bool peek(Time& time, std::uint64_t& abs_bucket);
  /// One tick of timer `index`: run its callback, then re-arm or retire it.
  void fire_timer(std::uint32_t index);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::size_t processed_ = 0;
  std::size_t pending_ = 0;
  bool stopped_ = false;
  Stats stats_;

  std::vector<Slot> slots_;
  std::vector<std::function<void()>> fns_;  ///< cold callback array (|| slots_)
  std::uint32_t free_head_ = kNoSlot;

  struct Target {
    void* self;
    TargetFn fn;
  };
  std::vector<Target> targets_;  ///< receivers of kCall events (add_target())
  std::vector<Entry> radix_scratch_;  ///< radix_sort's second buffer, reused

  /// Drain cursor: absolute index of the bucket of the last popped event.
  /// Every pending near event lives in [cursor_, cursor_ + num_buckets_).
  std::uint64_t cursor_ = 0;
  /// First absolute bucket that may be occupied (scan hint; always >= valid).
  std::uint64_t scan_hint_ = 0;
  std::size_t num_buckets_ = kMinBuckets;
  std::uint64_t bucket_mask_ = kMinBuckets - 1;
  double width_ = kWindowSeconds / static_cast<double>(kMinBuckets);
  double inv_width_ = static_cast<double>(kMinBuckets) / kWindowSeconds;
  std::vector<Bucket> buckets_{kMinBuckets};
  std::vector<std::uint64_t> occupied_ = std::vector<std::uint64_t>(kMinBuckets / 64, 0);
  std::size_t near_count_ = 0;
  std::uint32_t retune_countdown_ = kRetuneInterval;

  /// Far events, ordered by (time, seq); key order == pop order. The
  /// minimum is cached both as a time and as its absolute bucket index so
  /// the hot pop path's promotion check is a single integer compare against
  /// cursor_ + num_buckets_ — no tree walk, no int→float conversion.
  std::map<std::pair<Time, std::uint64_t>, std::uint32_t> far_;
  Time far_min_time_ = kTimeInfinity;
  std::uint64_t far_min_bucket_ = std::numeric_limits<std::uint64_t>::max();

  /// Periodic timers (every()). A deque, because a tick may register new
  /// timers: growing it must not move the entry whose callback is running.
  /// Ended timers' indices are recycled through free_timers_.
  struct Timer {
    Time period = 0.0;
    std::function<bool()> fn;
    std::shared_ptr<const bool> token;  ///< the owner's liveness; null: none
  };
  std::deque<Timer> timers_;
  std::vector<std::uint32_t> free_timers_;

  util::Rng rng_;
};

}  // namespace snooze::sim
