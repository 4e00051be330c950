// Epoch-based reclamation (EBR).
//
// The paper assumes a garbage collector reclaims list nodes (§2 and footnote
// 2). This domain is the substitution: a node retired after being unlinked
// is freed only after two global epoch advances, which guarantees that no
// operation that could still hold a reference is in flight. Because a node
// also cannot be *reused* before that grace period, EBR additionally gives
// the deque algorithms the ABA-freedom on node addresses that GC provided.
//
// Usage contract:
//   * Every operation that reads shared pointers holds a Guard for its whole
//     duration. Guards are reentrant per thread.
//   * retire() is called only after the object is unreachable from shared
//     memory (i.e. after the unlinking DCAS succeeded).
//   * The domain destructor frees everything still retired; the caller must
//     guarantee no thread is pinned in the domain at that point (the usual
//     "no concurrent access during destruction" rule).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dcd/util/align.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::reclaim {

class EbrDomain {
 public:
  using Deleter = void (*)(void*, void*);  // (object, context)

  EbrDomain();
  ~EbrDomain();

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  // RAII pin. Nested guards on the same domain are counted, not re-pinned.
  class Guard {
   public:
    explicit Guard(EbrDomain& domain)
        : domain_(domain), slot_(domain.enter()) {}
    ~Guard() { domain_.exit(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EbrDomain& domain_;
    std::size_t slot_;
  };

  // Defers `deleter(p, ctx)` until the grace period has elapsed.
  void retire(void* p, Deleter deleter, void* ctx);

  // Convenience: retire an object allocated with `new`.
  template <typename T>
  void retire_delete(T* p) {
    retire(
        p, [](void* q, void*) { delete static_cast<T*>(q); }, nullptr);
  }

  // Best-effort: advance the epoch if possible and drain the calling
  // thread's retired list. Useful in tests to make reclamation prompt.
  // Returns true if retired objects are still waiting for a grace period
  // that a later collect() may end: a thread pinned at an older epoch (the
  // caller included) blocked the advance, the calling thread's limbo is
  // not empty after the drain, or another live thread's limbo is not
  // empty, which its owner frees at its next drain. Limbo a thread left
  // behind when it exited does not count until a new thread takes its
  // registry slot (and with it that limbo).
  bool collect();

  // Diagnostics, summed over the per-slot counters. Exact when no thread
  // retires or drains concurrently; read live, each is a lower bound that
  // never decreases between successive reads by one thread.
  std::uint64_t retired_count() const;
  std::uint64_t freed_count() const;
  // Reads the freed counts before the retired ones, so a live read is at
  // most the true pending count and can never wrap below zero.
  std::uint64_t pending_count() const {
    const std::uint64_t freed = freed_count();
    return retired_count() - freed;
  }
  std::uint64_t epoch() const {
    return global_epoch_->load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    void* p;
    Deleter deleter;
    void* ctx;
    std::uint64_t epoch;
  };

  struct SlotState {
    // 0 = quiescent; otherwise the epoch this thread pinned.
    std::atomic<std::uint64_t> pinned{0};
    // Nesting depth; touched only by the owning thread.
    std::uint32_t nesting = 0;
    // Retired-but-not-freed objects are limbo[limbo_head..]; touched only
    // by the owning thread (slot ownership is exclusive via
    // ThreadRegistry). In retire order, so their epochs never decrease and
    // the ones past their grace period are always a prefix.
    std::vector<Retired> limbo;
    std::size_t limbo_head = 0;
    // Retires since the last drain attempt.
    std::uint32_t since_drain = 0;
    // Lifetime totals of this slot's limbo. Single-writer (the slot owner,
    // or the destructor's thread), so an increment is a plain load+store:
    // shared fetch_adds here put two locked RMWs on one line per retire.
    // `freed` is stored with release and read with acquire, so a reader
    // that sees a free also sees the retire that preceded it.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
  };

  // Attempt one global epoch advance; succeeds iff every pinned slot is at
  // the current epoch. Returns false iff a slot pinned at an older epoch
  // blocked it (a lost CAS means another thread advanced, which is as good).
  bool try_advance();

  // Free entries in `slot`'s limbo list whose grace period has elapsed.
  // Costs O(1) plus the entries freed, so a drain while a straggler holds
  // the epoch back is cheap however long the limbo has grown.
  void drain(SlotState& slot, bool force);

  std::size_t enter();
  void exit(std::size_t slot);

  static constexpr std::uint32_t kDrainThreshold = 64;

  util::CacheAligned<std::atomic<std::uint64_t>> global_epoch_;
  util::CacheAligned<SlotState> slots_[util::ThreadRegistry::kMaxThreads];
};

}  // namespace dcd::reclaim
