// NodePool: alignment, exhaustion, recycling, EBR-callback integration.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/node_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/barrier.hpp"

namespace {

using dcd::reclaim::EbrDomain;
using dcd::reclaim::NodePool;

TEST(NodePool, AllocationsAreCacheAlignedAndDistinct) {
  NodePool pool(24, 16);
  std::set<void*> seen;
  for (int i = 0; i < 16; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % dcd::util::kCacheLineSize,
              0u);
    EXPECT_TRUE(pool.owns(p));
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(NodePool, ExhaustionReturnsNullAndCounts) {
  NodePool pool(8, 4);
  void* ps[4];
  for (auto& p : ps) {
    p = pool.allocate();
    ASSERT_NE(p, nullptr);
  }
  EXPECT_EQ(pool.allocate(), nullptr);
  EXPECT_EQ(pool.allocation_failures(), 1u);
  pool.deallocate(ps[0]);
  EXPECT_NE(pool.allocate(), nullptr);
}

TEST(NodePool, LiveCountTracksAllocations) {
  NodePool pool(8, 8);
  EXPECT_EQ(pool.live(), 0u);
  void* a = pool.allocate();
  void* b = pool.allocate();
  EXPECT_EQ(pool.live(), 2u);
  pool.deallocate(a);
  pool.deallocate(b);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(NodePool, OwnsRejectsForeignAndMisalignedPointers) {
  NodePool pool(8, 4);
  int x;
  EXPECT_FALSE(pool.owns(&x));
  void* p = pool.allocate();
  EXPECT_TRUE(pool.owns(p));
  EXPECT_FALSE(pool.owns(static_cast<char*>(p) + 1));
}

TEST(NodePool, NodeSizeRoundsToCacheLine) {
  NodePool pool(1, 2);
  EXPECT_EQ(pool.node_size(), dcd::util::kCacheLineSize);
  NodePool pool2(65, 2);
  EXPECT_EQ(pool2.node_size(), 2 * dcd::util::kCacheLineSize);
}

TEST(NodePool, EbrCallbackReturnsNodesToPool) {
  // Pool declared first: it must outlive the domain, whose destructor
  // drains retired nodes back into it.
  NodePool pool(16, 8);
  EbrDomain domain;
  std::vector<void*> ps;
  for (int i = 0; i < 8; ++i) ps.push_back(pool.allocate());
  for (void* p : ps) domain.retire(p, NodePool::deallocate_cb, &pool);
  for (int i = 0; i < 6; ++i) domain.collect();
  EXPECT_EQ(pool.live(), 0u);
  // The full capacity is allocatable again.
  for (int i = 0; i < 8; ++i) ASSERT_NE(pool.allocate(), nullptr);
}

TEST(NodePool, ConcurrentAllocFreeThroughEbrIsLossless) {
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  constexpr std::size_t kCap = 64;
  NodePool pool(32, kCap);  // must outlive the domain (drain-on-destroy)
  EbrDomain domain;
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        EbrDomain::Guard guard(domain);
        void* p = pool.allocate();
        if (p != nullptr) {
          domain.retire(p, NodePool::deallocate_cb, &pool);
        }
      }
      // An exited thread's limbo waits for the next owner of its slot
      // (ebr.hpp), so each worker drains its own before leaving.
      while (domain.collect()) std::this_thread::yield();
    });
  }
  for (auto& t : ts) t.join();
  for (int i = 0; i < 6; ++i) domain.collect();
  EXPECT_EQ(pool.live(), 0u);
  // No node was lost: we can still allocate the full capacity.
  std::size_t count = 0;
  while (pool.allocate() != nullptr) ++count;
  EXPECT_EQ(count, kCap);
}

}  // namespace
