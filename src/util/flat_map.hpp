// Sorted flat map for small, lookup-heavy tables.
//
// Keys live in their own contiguous sorted array, values in a parallel one:
// a lookup binary-searches packed keys and touches a single value, and
// iteration runs in ascending key order exactly like std::map. The price is
// std::vector's invalidation rules: insert and erase shift the tail, so they
// invalidate iterators and references — never insert or erase under a loop
// over the map.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace snooze::util {

template <typename K, typename V>
class FlatMap {
  template <bool Const>
  class Iter {
    using Value = std::conditional_t<Const, const V, V>;

   public:
    /// Dereferencing yields a (key, value) pair of references, so both
    /// `it->second.field` and `for (auto&& [key, value] : map)` work.
    using value_type = std::pair<const K&, Value&>;
    using reference = value_type;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;
    struct pointer {
      value_type pair;
      const value_type* operator->() const { return &pair; }
    };

    Iter() = default;
    Iter(const K* key, Value* value) : key_(key), value_(value) {}

    reference operator*() const { return {*key_, *value_}; }
    pointer operator->() const { return {**this}; }
    Iter& operator++() {
      ++key_;
      ++value_;
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) { return a.key_ == b.key_; }
    friend bool operator!=(const Iter& a, const Iter& b) { return a.key_ != b.key_; }

   private:
    friend class FlatMap;
    const K* key_ = nullptr;
    Value* value_ = nullptr;
  };

 public:
  using size_type = std::size_t;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  [[nodiscard]] size_type size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  void clear() {
    keys_.clear();
    values_.clear();
  }

  iterator begin() { return at(0); }
  iterator end() { return at(keys_.size()); }
  const_iterator begin() const { return at(0); }
  const_iterator end() const { return at(keys_.size()); }

  iterator find(const K& key) { return at(find_index(key)); }
  const_iterator find(const K& key) const { return at(find_index(key)); }
  [[nodiscard]] size_type count(const K& key) const {
    return find_index(key) != keys_.size() ? 1 : 0;
  }

  /// The value under `key`, default-constructed and inserted if absent.
  V& operator[](const K& key) {
    const std::size_t i = lower_index(key);
    if (i == keys_.size() || keys_[i] != key) {
      keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
      values_.emplace(values_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return values_[i];
  }

  /// Remove `key` if present; returns the number of entries removed (0/1).
  size_type erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == keys_.size()) return 0;
    erase_index(i);
    return 1;
  }
  /// Remove the entry at `it`; returns the iterator to the entry after it.
  iterator erase(iterator it) {
    const std::size_t i = static_cast<std::size_t>(it.key_ - keys_.data());
    erase_index(i);
    return at(i);
  }

 private:
  [[nodiscard]] std::size_t lower_index(const K& key) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  /// Index of `key`, or size() when absent.
  [[nodiscard]] std::size_t find_index(const K& key) const {
    const std::size_t i = lower_index(key);
    return i != keys_.size() && keys_[i] == key ? i : keys_.size();
  }
  void erase_index(std::size_t i) {
    keys_.erase(keys_.begin() + static_cast<std::ptrdiff_t>(i));
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  iterator at(std::size_t i) { return {keys_.data() + i, values_.data() + i}; }
  const_iterator at(std::size_t i) const { return {keys_.data() + i, values_.data() + i}; }

  std::vector<K> keys_;    ///< sorted ascending, unique
  std::vector<V> values_;  ///< values_[i] belongs to keys_[i]
};

}  // namespace snooze::util
