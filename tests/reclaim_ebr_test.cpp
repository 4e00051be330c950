// EBR domain semantics: deferral, grace periods, guards, reentrancy.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "dcd/reclaim/ebr.hpp"
#include "dcd/util/barrier.hpp"

namespace {

using dcd::reclaim::EbrDomain;

struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

TEST(Ebr, RetireDefersUntilCollect) {
  EbrDomain domain;
  auto* p = new Tracked;
  EXPECT_EQ(Tracked::live.load(), 1);
  domain.retire_delete(p);
  EXPECT_EQ(domain.retired_count(), 1u);
  // With no pinned threads, a few collect()s advance the epoch enough to
  // free the object.
  for (int i = 0; i < 4; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.freed_count(), 1u);
}

TEST(Ebr, GuardBlocksReclamation) {
  EbrDomain domain;
  auto* p = new Tracked;
  {
    EbrDomain::Guard guard(domain);
    domain.retire_delete(p);
    for (int i = 0; i < 8; ++i) domain.collect();
    // Our own pin holds the epoch: the object must still be alive.
    EXPECT_EQ(Tracked::live.load(), 1);
  }
  for (int i = 0; i < 4; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, RemoteGuardBlocksReclamation) {
  EbrDomain domain;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EbrDomain::Guard guard(domain);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  auto* p = new Tracked;
  domain.retire_delete(p);
  for (int i = 0; i < 8; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), 1) << "freed under a remote pin";

  release.store(true);
  reader.join();
  for (int i = 0; i < 4; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, GuardsAreReentrant) {
  EbrDomain domain;
  EbrDomain::Guard outer(domain);
  {
    EbrDomain::Guard inner(domain);
    EbrDomain::Guard deeper(domain);
  }
  // Still pinned: retire from another thread cannot free yet.
  auto* p = new Tracked;
  domain.retire_delete(p);
  for (int i = 0; i < 8; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), 1);
}

TEST(Ebr, NestedGuardExitOrderingHoldsPin) {
  // Scope-exit ordering: exiting an inner guard must decrement the
  // nesting count, not unpin the slot — the thread stays pinned until
  // the outermost guard exits. This is the property the analyzer's
  // guard pass assumes when it treats an enclosing scope as covering
  // every deref (and nested Guard) inside it.
  const int base = Tracked::live.load();
  EbrDomain domain;
  auto* p = new Tracked;
  {
    EbrDomain::Guard outer(domain);
    {
      EbrDomain::Guard inner(domain);
      domain.retire_delete(p);
    }
    // `inner` has exited; `outer` must still hold the pin.
    for (int i = 0; i < 8; ++i) domain.collect();
    EXPECT_EQ(Tracked::live.load(), base + 1)
        << "inner guard exit unpinned the slot under a live outer guard";
  }
  for (int i = 0; i < 4; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), base);
}

TEST(Ebr, DeepReentrancyUnwindsToQuiescent) {
  // A deep stack of same-domain guards (well past any drain threshold)
  // pins exactly once and unpins exactly once, at full unwind.
  const int base = Tracked::live.load();
  EbrDomain domain;
  auto* p = new Tracked;
  std::function<void(int)> nest = [&](int depth) {
    EbrDomain::Guard guard(domain);
    if (depth > 0) {
      nest(depth - 1);
      return;
    }
    domain.retire_delete(p);
    for (int i = 0; i < 8; ++i) domain.collect();
    EXPECT_EQ(Tracked::live.load(), base + 1);
  };
  nest(32);
  // All 33 guards unwound: the slot is quiescent again.
  for (int i = 0; i < 4; ++i) domain.collect();
  EXPECT_EQ(Tracked::live.load(), base);
}

TEST(Ebr, CrossDomainNestedGuardsExitIndependently) {
  // The MCAS engine pins its own domain inside deque operations that
  // already hold a guard on another domain; each domain's pin must
  // track its own guard scope only.
  const int base = Tracked::live.load();
  EbrDomain outer_dom;
  EbrDomain inner_dom;
  auto* po = new Tracked;
  auto* pi = new Tracked;
  {
    EbrDomain::Guard outer(outer_dom);
    {
      EbrDomain::Guard inner(inner_dom);
      outer_dom.retire_delete(po);
      inner_dom.retire_delete(pi);
      for (int i = 0; i < 8; ++i) {
        outer_dom.collect();
        inner_dom.collect();
      }
      EXPECT_EQ(Tracked::live.load(), base + 2);
    }
    // inner_dom is quiescent, outer_dom still pinned: exactly the
    // inner domain's object may free.
    for (int i = 0; i < 8; ++i) {
      outer_dom.collect();
      inner_dom.collect();
    }
    EXPECT_EQ(Tracked::live.load(), base + 1)
        << "outer domain freed under its own live guard";
  }
  for (int i = 0; i < 4; ++i) outer_dom.collect();
  EXPECT_EQ(Tracked::live.load(), base);
}

TEST(Ebr, DestructorFreesEverything) {
  {
    EbrDomain domain;
    for (int i = 0; i < 100; ++i) domain.retire_delete(new Tracked);
    EXPECT_GT(Tracked::live.load(), 0);
  }
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(Ebr, EpochAdvancesUnderConcurrentGuards) {
  const int base_live = Tracked::live.load();
  std::uint64_t freed_mid = 0, retired_mid = 0;
  {
    EbrDomain domain;
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    dcd::util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        for (int i = 0; i < kIters; ++i) {
          EbrDomain::Guard guard(domain);
          domain.retire_delete(new Tracked);
        }
      });
    }
    for (auto& t : ts) t.join();
    for (int i = 0; i < 6; ++i) domain.collect();
    // Epochs must have advanced under churn: the bulk of the retired
    // objects is already freed. (Exited workers strand their final limbo
    // batches until domain destruction — collect() only drains the
    // calling thread's slot — so exact equality is not guaranteed here.)
    freed_mid = domain.freed_count();
    retired_mid = domain.retired_count();
    EXPECT_EQ(retired_mid, static_cast<std::uint64_t>(kThreads * kIters));
    EXPECT_GT(freed_mid, 0u) << "epochs never advanced";
  }
  // Destruction force-drains every slot: nothing may survive.
  EXPECT_EQ(Tracked::live.load(), base_live);
}

TEST(Ebr, StressNoUseAfterFree) {
  // Readers chase a shared pointer under guards while a writer swaps and
  // retires it; Tracked's canary value detects touching freed memory.
  struct Node {
    std::uint64_t canary = 0xfeedfacecafebeefull;
  };
  EbrDomain domain;
  std::atomic<Node*> shared{new Node};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        EbrDomain::Guard guard(domain);
        Node* n = shared.load(std::memory_order_acquire);
        if (n->canary != 0xfeedfacecafebeefull) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    EbrDomain::Guard guard(domain);
    Node* fresh = new Node;
    Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
    domain.retire(
        old,
        [](void* p, void*) {
          static_cast<Node*>(p)->canary = 0;  // poison before free
          delete static_cast<Node*>(p);
        },
        nullptr);
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  delete shared.load();
}


TEST(Ebr, LiveCountersAreMonotoneLowerBounds) {
  // The counters are per-slot sums read while writers run. Each read must
  // be a lower bound that never decreases, and pending_count() (freed read
  // before retired) must never wrap below zero.
  const int base_live = Tracked::live.load();
  {
    EbrDomain domain;
    constexpr int kThreads = 3;
    constexpr int kIters = 20000;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> violations{0};
    std::thread reader([&] {
      std::uint64_t last_freed = 0, last_retired = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t pending = domain.pending_count();
        const std::uint64_t freed = domain.freed_count();
        const std::uint64_t retired = domain.retired_count();
        if (pending > retired || freed > retired || freed < last_freed ||
            retired < last_retired) {
          violations.fetch_add(1);
        }
        last_freed = freed;
        last_retired = retired;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
    dcd::util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        for (int i = 0; i < kIters; ++i) {
          {
            EbrDomain::Guard guard(domain);
            domain.retire_delete(new Tracked);
          }
          if (i % 256 == 0) domain.collect();
        }
      });
    }
    for (auto& t : ts) t.join();
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(violations.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    // Quiescent now, so the sums are exact.
    const std::uint64_t retired = domain.retired_count();
    EXPECT_EQ(retired, static_cast<std::uint64_t>(kThreads * kIters));
    EXPECT_GT(domain.freed_count(), 0u) << "epochs never advanced";
    EXPECT_EQ(domain.pending_count(), retired - domain.freed_count());
  }
  EXPECT_EQ(Tracked::live.load(), base_live);
}

}  // namespace
