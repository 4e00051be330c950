// Type-stable node pool with an ABA-proof free list.
//
// LFRC (PODC'01) frees objects at arbitrary moments — there is no grace
// period — yet LFRCLoad may still *read* a just-freed object's count word
// before its slot-validation DCAS fails. That is sound only under two
// conditions this pool provides and the general heap does not:
//
//   1. type-stability: freed storage stays mapped and is only ever reused
//      for the same node type, so the stale read returns a harmless word
//      (in particular never a value with the descriptor bit set, which
//      would send the MCAS engine helping a descriptor that is not there);
//   2. an ABA-proof free list: pushes happen at arbitrary times (no EBR
//      deferral is possible), so the Treiber head carries a version tag
//      updated with a double-width CAS (cmpxchg16b). On non-x86-64 targets
//      a spinlock fallback provides the same interface; the fallback is
//      also used under ThreadSanitizer, which cannot see the inline-asm
//      CAS as a synchronisation edge and would report false races on the
//      recycled storage.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define DCD_TAGGED_POOL_LOCKFREE 1
#else
#define DCD_TAGGED_POOL_LOCKFREE 0
#endif

namespace dcd::reclaim {

class TaggedNodePool {
 public:
  // DCD_GUARD_EXEMPT(single-threaded construction; the free list is private until the pool is shared)
  TaggedNodePool(std::size_t node_size, std::size_t capacity)
      : node_size_(round_up(node_size)), capacity_(capacity) {
    DCD_ASSERT(capacity > 0);
    slab_ = static_cast<std::byte*>(::operator new(
        node_size_ * capacity_, std::align_val_t{util::kCacheLineSize}));
    // Zero the slab so stale reads of never-used nodes see clean words.
    for (std::size_t i = 0; i < node_size_ * capacity_; ++i) {
      slab_[i] = std::byte{0};
    }
    FreeNode* head = nullptr;
    for (std::size_t i = capacity_; i-- > 0;) {
      auto* fn = reinterpret_cast<FreeNode*>(slab_ + i * node_size_);
      fn->next.store(head, std::memory_order_relaxed);
      head = fn;
    }
    head_.lo.store(reinterpret_cast<std::uint64_t>(head),
                   std::memory_order_relaxed);
    head_.hi.store(0, std::memory_order_relaxed);
  }

  ~TaggedNodePool() {
    ::operator delete(slab_, std::align_val_t{util::kCacheLineSize});
  }

  TaggedNodePool(const TaggedNodePool&) = delete;
  TaggedNodePool& operator=(const TaggedNodePool&) = delete;

  // DCD_GUARD_EXEMPT(version tag detects recycling; the speculative next read is discarded on tag mismatch)
  void* allocate() noexcept {
#if DCD_TAGGED_POOL_LOCKFREE
    util::Backoff backoff;
    for (;;) {
      std::uint64_t head, tag;
      dcas::Cmpxchg16bDcas::read(head_, head, tag);
      auto* fn = reinterpret_cast<FreeNode*>(head);
      if (fn == nullptr) return nullptr;
      // The tag makes a stale `next` harmless: if the head changed and
      // changed back, the tag differs and the CAS fails. (The relaxed read
      // may race a reused node's live data; the value is discarded then.)
      FreeNode* next = fn->next.load(std::memory_order_relaxed);
      if (dcas::Cmpxchg16bDcas::dcas(head_, head, tag,
                                     reinterpret_cast<std::uint64_t>(next),
                                     tag + 1)) {
        return fn;
      }
      backoff.pause();
    }
#else
    Lock g(lock_);
    auto* fn = reinterpret_cast<FreeNode*>(
        head_.lo.load(std::memory_order_relaxed));
    if (fn == nullptr) return nullptr;
    head_.lo.store(reinterpret_cast<std::uint64_t>(
                       fn->next.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
    return fn;
#endif
  }

  // DCD_GUARD_EXEMPT(caller owns the node exclusively — post-grace callback or never shared)
  void deallocate(void* p) noexcept {
    DCD_DEBUG_ASSERT(owns(p));
    auto* fn = static_cast<FreeNode*>(p);
#if DCD_TAGGED_POOL_LOCKFREE
    util::Backoff backoff;
    for (;;) {
      std::uint64_t head, tag;
      dcas::Cmpxchg16bDcas::read(head_, head, tag);
      fn->next.store(reinterpret_cast<FreeNode*>(head),
                     std::memory_order_relaxed);
      if (dcas::Cmpxchg16bDcas::dcas(head_, head, tag,
                                     reinterpret_cast<std::uint64_t>(fn),
                                     tag + 1)) {
        return;
      }
      backoff.pause();
    }
#else
    Lock g(lock_);
    fn->next.store(reinterpret_cast<FreeNode*>(
                       head_.lo.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
    head_.lo.store(reinterpret_cast<std::uint64_t>(fn),
                   std::memory_order_relaxed);
#endif
  }

  bool owns(const void* p) const noexcept {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= slab_ && b < slab_ + node_size_ * capacity_ &&
           (static_cast<std::size_t>(b - slab_) % node_size_) == 0;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t node_size() const noexcept { return node_size_; }

 private:
  struct FreeNode {
    std::atomic<FreeNode*> next;
  };

  class Lock {
   public:
    explicit Lock(std::atomic<bool>& flag) : flag_(flag) {
      util::Backoff backoff;
      while (flag_.exchange(true, std::memory_order_acquire)) {
        backoff.pause();
      }
    }
    ~Lock() { flag_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool>& flag_;
  };

  static std::size_t round_up(std::size_t n) noexcept {
    const std::size_t a = util::kCacheLineSize;
    return (n + a - 1) / a * a;
  }

  std::size_t node_size_;
  std::size_t capacity_;
  std::byte* slab_ = nullptr;
  dcas::AdjacentPair head_;  // {pointer, version tag}
  std::atomic<bool> lock_{false};
};

}  // namespace dcd::reclaim
