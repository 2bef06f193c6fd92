// Pooled message allocation.
//
// Components allocate a fresh heartbeat/report message per period; at 10k
// LCs that is tens of thousands of short-lived shared_ptr blocks per virtual
// second.
// make_message<T>() routes the combined control-block + payload allocation
// of std::allocate_shared through a per-size-class freelist, so steady-state
// traffic recycles blocks instead of hitting the global allocator.
//
// The pool is intentionally not thread-safe: the whole stack is single
// threaded by design.
// Determinism: allocation order has no observable effect on the simulation.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace snooze::net {

namespace detail {

/// Freelist of raw blocks of one size class; blocks are returned to the list
/// on deallocation and reused LIFO (the hottest block stays cache-warm).
template <std::size_t Size, std::size_t Align>
class BlockPool {
 public:
  static void* allocate() {
    if (head_ == nullptr) {
      return ::operator new(Size, std::align_val_t{Align});
    }
    Node* node = head_;
    head_ = node->next;
    return node;
  }

  static void deallocate(void* p) {
    Node* node = static_cast<Node*>(p);
    node->next = head_;
    head_ = node;
  }

 private:
  struct Node {
    Node* next;
  };
  static_assert(Size >= sizeof(Node));
  static inline Node* head_ = nullptr;
};

}  // namespace detail

/// Minimal allocator over BlockPool; std::allocate_shared rebinds it to its
/// internal node type, so single-object allocations hit the freelist and the
/// control block and payload share one pooled block.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) {
      return static_cast<T*>(detail::BlockPool<sizeof(T), alignof(T)>::allocate());
    }
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{alignof(T)}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      detail::BlockPool<sizeof(T), alignof(T)>::deallocate(p);
    } else {
      ::operator delete(p, std::align_val_t{alignof(T)});
    }
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

/// Drop-in replacement for std::make_shared on hot message paths.
template <typename T, typename... Args>
std::shared_ptr<T> make_message(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{}, std::forward<Args>(args)...);
}

}  // namespace snooze::net
