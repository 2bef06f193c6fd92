#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>

namespace snooze::sim {

Engine::Engine(std::uint64_t seed) : rng_(seed) {
  static_assert(sizeof(Entry) == 16, "bucket entries must pack 4 per cache line");
  static_assert(sizeof(Slot) == 32, "hot slot records must pack 2 per cache line");
}

EventId Engine::schedule(Time delay, std::function<void()> fn) {
  assert(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(fn));
}

std::uint32_t Engine::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  fns_.emplace_back();
  const auto slot = static_cast<std::uint32_t>(slots_.size() - 1);
  assert(slot <= kSlotMask && "event slab exceeded the 2^24 entry-key budget");
  return slot;
}

void Engine::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // Release a closure eagerly (it may pin shared state); typed events have
  // none, and never touch the cold array.
  if (s.kind == EventKind::kClosure) fns_[slot] = nullptr;
  s.state = SlotState::kFree;
  ++s.generation;  // outstanding handles to this event become stale
  s.next_free = free_head_;
  free_head_ = slot;
  --pending_;
}

void Engine::bucket_push(Bucket& bucket, const Entry& entry) {
  if (!bucket.sorted) {
    // Not yet reached by the drain cursor: append in O(1), in any order.
    slots_[entry_slot(entry)].bag_index = static_cast<std::uint32_t>(bucket.v.size());
    bucket.v.push_back(entry);
    return;
  }
  // The bucket being drained keeps its order; a sorted bucket is never empty.
  if (entry_before(bucket.v.back(), entry)) {
    bucket.v.push_back(entry);
    return;
  }
  const auto it = std::upper_bound(bucket.v.begin() + bucket.head,
                                   bucket.v.end(), entry, entry_before);
  bucket.v.insert(it, entry);
}

void Engine::bucket_pop_front(Bucket& bucket) {
  ++bucket.head;
  if (bucket.empty()) {
    // A drained ring restarts as an empty bag from index 0, so long-lived
    // buckets don't accrete dead prefix across window wraps.
    bucket.v.clear();
    bucket.head = 0;
    bucket.sorted = false;
  }
}

void Engine::bucket_cancel(Bucket& bucket, const Entry& entry) {
  if (!bucket.sorted) {
    const std::uint32_t i = slots_[entry_slot(entry)].bag_index;
    assert(i >= bucket.head && i < bucket.v.size() && bucket.v[i].key == entry.key);
    if (i == bucket.head) {
      // Cancels in append order (each reply cancelling its own guard) just
      // advance the head: no move, and an ordered bag stays ordered.
      ++bucket.head;
    } else {
      // Swap-remove: the last entry takes the hole and learns its new index.
      if (i + 1 != bucket.v.size()) {
        bucket.v[i] = bucket.v.back();
        slots_[entry_slot(bucket.v[i])].bag_index = i;
      }
      bucket.v.pop_back();
    }
  } else {
    const auto begin = bucket.v.begin() + bucket.head;
    const auto it = std::lower_bound(begin, bucket.v.end(), entry, entry_before);
    assert(it != bucket.v.end() && it->key == entry.key);
    // Shift whichever side is shorter; cancels typically arrive in the same
    // seq order the entries did (each RPC reply cancels its own guard),
    // which makes this a one-element move at the ring's head.
    if (it - begin <= bucket.v.end() - it - 1) {
      std::move_backward(begin, it, it + 1);
      ++bucket.head;
    } else {
      bucket.v.erase(it);
    }
  }
  if (bucket.empty()) {
    bucket.v.clear();
    bucket.head = 0;
    bucket.sorted = false;
  }
}

void Engine::mark_occupied(std::uint64_t abs_bucket) {
  const std::size_t p = abs_bucket & bucket_mask_;
  occupied_[p >> 6] |= std::uint64_t{1} << (p & 63);
}

void Engine::clear_occupied(std::uint64_t abs_bucket) {
  const std::size_t p = abs_bucket & bucket_mask_;
  occupied_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
}

EventId Engine::schedule_at(Time t, std::function<void()> fn) {
  assert(t >= now_);
  const std::uint32_t slot = alloc_slot();
  fns_[slot] = std::move(fn);
  slots_[slot].kind = EventKind::kClosure;
  return enqueue(slot, t);
}

Engine::TargetId Engine::add_target(void* self, TargetFn fn) {
  assert(targets_.size() <= std::numeric_limits<TargetId>::max());
  targets_.push_back(Target{self, fn});
  return static_cast<TargetId>(targets_.size() - 1);
}

EventId Engine::schedule_call(Time delay, TargetId target, std::uint32_t arg) {
  assert(target < targets_.size());
  return schedule_typed(delay, EventKind::kCall, target, arg);
}

EventId Engine::schedule_typed(Time delay, EventKind kind, TargetId target,
                               std::uint32_t arg) {
  assert(delay >= 0.0);
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.kind = kind;
  s.target = target;
  s.arg = arg;
  return enqueue(slot, now_ + delay);
}

EventId Engine::enqueue(std::uint32_t slot, Time t) {
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.time = t;
  s.seq = seq;

  const std::uint64_t b = bucket_of(t);
  if (b < cursor_ + num_buckets_) {
    s.state = SlotState::kNear;
    auto& bucket = buckets_[b & bucket_mask_];
    if (bucket.empty()) mark_occupied(b);
    bucket_push(bucket, Entry{t, seq << kSlotBits | slot});
    ++near_count_;
    if (b < scan_hint_) scan_hint_ = b;
  } else {
    s.state = SlotState::kFar;
    far_.emplace(std::make_pair(t, seq), slot);
    if (t < far_min_time_) {
      far_min_time_ = t;
      far_min_bucket_ = b;
    }
    ++stats_.overflowed;
  }
  ++pending_;
  ++stats_.scheduled;
  stats_.peak_pending = std::max(stats_.peak_pending, pending_);
  const EventId id = (static_cast<std::uint64_t>(slot) + 1) << 32 | s.generation;
  if (--retune_countdown_ == 0) maybe_retune();
  return id;
}

bool Engine::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(hi - 1);
  Slot& s = slots_[slot];
  if (s.state == SlotState::kFree ||
      s.generation != static_cast<std::uint32_t>(id & 0xFFFFFFFFu)) {
    return false;  // already fired or cancelled
  }

  if (s.state == SlotState::kNear) {
    const std::uint64_t b = bucket_of(s.time);
    auto& bucket = buckets_[b & bucket_mask_];
    // The bag index or a (time, seq) binary search relocates the entry —
    // every successful RPC lands here, so this must not degrade to a
    // full-bucket scan.
    bucket_cancel(bucket, Entry{s.time, s.seq << kSlotBits | slot});
    if (bucket.empty()) clear_occupied(b);
    --near_count_;
  } else {
    far_.erase(std::make_pair(s.time, s.seq));
    if (s.time <= far_min_time_) update_far_min();
  }
  free_slot(slot);
  ++stats_.cancelled;
  if (--retune_countdown_ == 0) maybe_retune();
  return true;
}

void Engine::every(Time period, std::function<bool()> fn,
                   std::shared_ptr<const bool> token) {
  assert(period >= 0.0);
  std::uint32_t index;
  if (free_timers_.empty()) {
    index = static_cast<std::uint32_t>(timers_.size());
    timers_.push_back(Timer{period, std::move(fn), std::move(token)});
  } else {
    index = free_timers_.back();
    free_timers_.pop_back();
    timers_[index] = Timer{period, std::move(fn), std::move(token)};
  }
  schedule_typed(period, EventKind::kTick, 0, index);
}

void Engine::fire_timer(std::uint32_t index) {
  // The reference survives timers registered by the callback (deque growth
  // never moves elements), and nothing else can retire this entry.
  Timer& timer = timers_[index];
  const bool* alive = timer.token.get();
  // The token is read on both sides of fn: fn may crash its own owner.
  if ((alive == nullptr || *alive) && timer.fn() && (alive == nullptr || *alive)) {
    // Scheduled after fn's own events: same (time, seq) as a
    // self-rescheduling closure, so pop order and every trace are unchanged
    // by the table.
    schedule_typed(timer.period, EventKind::kTick, 0, index);
    return;
  }
  // Release captured state now, as a one-shot would. A destroyed owner's
  // token outlives it here, so this tick read no freed memory.
  timer.fn = nullptr;
  timer.token.reset();
  free_timers_.push_back(index);
}

void Engine::promote_far() {
  const std::uint64_t horizon = cursor_ + num_buckets_;
  while (!far_.empty()) {
    const auto it = far_.begin();
    const std::uint64_t b = bucket_of(it->first.first);
    if (b >= horizon) break;
    const std::uint32_t slot = it->second;
    Slot& s = slots_[slot];
    s.state = SlotState::kNear;
    auto& bucket = buckets_[b & bucket_mask_];
    if (bucket.empty()) mark_occupied(b);
    bucket_push(bucket, Entry{s.time, s.seq << kSlotBits | slot});
    ++near_count_;
    if (b < scan_hint_) scan_hint_ = b;
    far_.erase(it);
    ++stats_.promoted;
  }
  update_far_min();
}

void Engine::update_far_min() {
  if (far_.empty()) {
    far_min_time_ = kTimeInfinity;
    far_min_bucket_ = std::numeric_limits<std::uint64_t>::max();
  } else {
    far_min_time_ = far_.begin()->first.first;
    far_min_bucket_ = bucket_of(far_min_time_);
  }
}

void Engine::maybe_retune() {
  retune_countdown_ = kRetuneInterval;
  const std::size_t target = std::clamp(
      std::bit_ceil(pending_ * kBucketsPerEvent + 1), kMinBuckets, kMaxBuckets);
  // 4x hysteresis in both directions: a population oscillating around a
  // power-of-two boundary must not flip the geometry back and forth.
  if (target >= num_buckets_ * 4 || target * 4 <= num_buckets_) {
    resize_buckets(target);
  }
}

void Engine::resize_buckets(std::size_t new_count) {
  std::vector<Bucket> old = std::move(buckets_);

  num_buckets_ = new_count;
  bucket_mask_ = new_count - 1;
  width_ = kWindowSeconds / static_cast<double>(new_count);
  inv_width_ = static_cast<double>(new_count) / kWindowSeconds;
  buckets_.assign(new_count, {});
  occupied_.assign(new_count / 64, 0);
  // All pending times are >= now_, so every rehashed entry lands at or past
  // the new cursor; the old cursor/hint are meaningless under the new width.
  cursor_ = bucket_of(now_);
  scan_hint_ = cursor_;
  near_count_ = 0;

  const std::uint64_t horizon = cursor_ + num_buckets_;
  for (auto& src : old) {
    for (std::size_t i = src.head; i < src.v.size(); ++i) {
      const Entry& e = src.v[i];
      const std::uint32_t slot = entry_slot(e);
      const std::uint64_t b = bucket_of(e.time);
      if (b < horizon) {
        auto& bucket = buckets_[b & bucket_mask_];
        if (bucket.empty()) mark_occupied(b);
        bucket_push(bucket, e);
        ++near_count_;
      } else {
        // The new horizon can sit up to one old bucket earlier in absolute
        // time; entries past it spill to the far map like any overflow.
        Slot& s = slots_[slot];
        s.state = SlotState::kFar;
        far_.emplace(std::make_pair(s.time, s.seq), slot);
        ++stats_.overflowed;
      }
    }
  }
  // The cached far minimum's bucket index is stale under the new width.
  update_far_min();
  // Symmetrically, the new horizon can cover times the old one did not.
  if (far_min_bucket_ < horizon) promote_far();
  ++stats_.resizes;
}

void Engine::sort_bag(Bucket& bucket) {
  Entry* const first = bucket.v.data() + bucket.head;
  const std::size_t n = bucket.size();
  if (n < kRadixMinEntries) {
    // Keys are unique, so the result is the (time, seq) order whatever the
    // sort. Bags filled in order (un-jittered timers, single entries) skip it.
    if (!std::is_sorted(first, first + n, entry_before)) {
      std::sort(first, first + n, entry_before);
    }
    return;
  }
  // One scan: is the bag in (time, seq) order already, are its keys in seq
  // order, and in which bits do its times differ.
  const std::uint64_t base = time_bits(first[0].time);
  std::uint64_t prev = base;
  std::uint64_t differ = 0;
  bool sorted = true;
  bool keys_ascend = true;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t bits = time_bits(first[i].time);
    const bool key_up = first[i - 1].key < first[i].key;
    differ |= bits ^ base;
    keys_ascend &= key_up;
    sorted &= (prev < bits) | ((prev == bits) & key_up);
    prev = bits;
  }
  if (sorted) return;
  radix_sort(first, n, differ, [](const Entry& e) { return time_bits(e.time); });
  // The radix is stable: each equal-time run is in bag order, which is seq
  // order unless the bag's keys were not (a cancel's swap-remove moves the
  // bag's last entry forward). Repair exactly the runs that need it.
  if (keys_ascend) return;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i + 1;
    std::uint64_t run_differ = 0;
    bool run_ascends = true;
    while (j < n && first[j].time == first[i].time) {
      run_differ |= first[j].key ^ first[i].key;
      run_ascends &= first[j - 1].key < first[j].key;
      ++j;
    }
    if (!run_ascends) {
      if (j - i < kRadixMinEntries) {
        std::sort(first + i, first + j, entry_before);
      } else {
        // Seqs are unique, so the slot bits below them never decide.
        radix_sort(first + i, j - i, run_differ & ~kSlotMask,
                   [](const Entry& e) { return e.key; });
      }
    }
    i = j;
  }
}

template <typename KeyOf>
void Engine::radix_sort(Entry* first, std::size_t n, std::uint64_t differ, KeyOf key_of) {
  constexpr std::size_t kRadix = std::size_t{1} << kRadixBits;
  if (differ == 0) return;
  if (radix_scratch_.size() < n) radix_scratch_.resize(n);
  Entry* src = first;
  Entry* dst = radix_scratch_.data();
  const int hi = 64 - std::countl_zero(differ);
  for (int shift = std::countr_zero(differ); shift < hi; shift += kRadixBits) {
    if (((differ >> shift) & (kRadix - 1)) == 0) continue;  // no entry differs here
    std::uint32_t count[kRadix] = {};
    for (std::size_t i = 0; i < n; ++i) ++count[(key_of(src[i]) >> shift) & (kRadix - 1)];
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) {
      const std::uint32_t here = c;
      c = offset;
      offset += here;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[count[(key_of(src[i]) >> shift) & (kRadix - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

bool Engine::peek(Time& time, std::uint64_t& abs_bucket) {
  if (near_count_ > 0) {
    // A near event always precedes every far event (far buckets lie beyond
    // the near window), so the first occupied bucket holds the winner.
    std::uint64_t b = std::max(scan_hint_, cursor_);
    for (;;) {
      assert(b < cursor_ + num_buckets_);
      const std::size_t p = b & bucket_mask_;
      const std::uint64_t word = occupied_[p >> 6] >> (p & 63);
      if (word != 0) {
        b += static_cast<std::uint64_t>(std::countr_zero(word));
        break;
      }
      b += 64 - (p & 63);  // jump to the next bitmap word
    }
    scan_hint_ = b;
    Bucket& bucket = buckets_[b & bucket_mask_];
    if (!bucket.sorted) {
      // First time the cursor reaches this bucket: order it once.
      sort_bag(bucket);
      bucket.sorted = true;
    }
    time = bucket.front().time;
    abs_bucket = b;
    return true;
  }
  time = far_.begin()->first.first;
  abs_bucket = bucket_of(time);
  return false;
}

std::size_t Engine::run_until(Time until) {
  stopped_ = false;
  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t fired = 0;
  while (pending_ > 0 && !stopped_) {
    Time t = 0.0;
    std::uint64_t b = 0;
    const bool near = peek(t, b);
    if (t > until) break;

    std::uint32_t slot;
    if (near) {
      auto& bucket = buckets_[b & bucket_mask_];
      slot = entry_slot(bucket.front());
      bucket_pop_front(bucket);
      if (bucket.empty()) clear_occupied(b);
      --near_count_;
    } else {
      slot = far_.begin()->second;
      far_.erase(far_.begin());
      update_far_min();
    }
    // Advancing the cursor widens the near window; pull far events that the
    // new horizon now covers before the callback schedules against it. The
    // cached minimum's bucket index keeps this one integer compare per pop —
    // no tree walk, no int→float conversion.
    cursor_ = b;
    scan_hint_ = std::max(scan_hint_, b);
    now_ = t;
    if (far_min_bucket_ < cursor_ + num_buckets_) promote_far();

    const Slot& s = slots_[slot];
    if (s.kind == EventKind::kClosure) {
      auto fn = std::move(fns_[slot]);
      free_slot(slot);
      fn();
    } else {
      // Read before free_slot() reuses the argument's word.
      const EventKind kind = s.kind;
      const std::uint32_t arg = s.arg;
      const TargetId target = s.target;
      free_slot(slot);
      if (kind == EventKind::kTick) {
        fire_timer(arg);
      } else {
        const Target& call = targets_[target];
        call.fn(call.self, arg);
      }
    }
    ++fired;
    ++processed_;
    ++stats_.fired;
    if (--retune_countdown_ == 0) maybe_retune();
  }
  if (pending_ == 0 && until != kTimeInfinity && now_ < until) {
    // Advance the clock to the horizon so callers can rely on now()==until.
    now_ = until;
  }
  stats_.run_wall_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  return fired;
}

std::size_t Engine::queued_entries() const {
  std::size_t n = far_.size();
  for (const auto& bucket : buckets_) n += bucket.size();
  return n;
}

}  // namespace snooze::sim
