// McasDcas-specific behaviour: descriptor stripping, helping, snapshots,
// and lock-freedom under a stalled writer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dcd/dcas/mcas.hpp"
#include "dcd/dcas/telemetry.hpp"
#include "dcd/reclaim/ebr.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/thread_registry.hpp"

namespace {

using namespace dcd::dcas;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

TEST(Mcas, LoadNeverReturnsMarkedWord) {
  Word a(val(1)), b(val(2));
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    std::uint64_t x = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t va = McasDcas::load(a);
      const std::uint64_t vb = McasDcas::load(b);
      (void)McasDcas::dcas(a, b, va, vb, val(x), val(x + 1));
      ++x;
    }
  });
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = McasDcas::load(a);
    ASSERT_EQ(v & kDescriptorBit, 0u) << "descriptor leaked to a reader";
  }
  stop.store(true);
  churn.join();
}

TEST(Mcas, SnapshotIsAtomicPair) {
  // Writers keep a == b at all times (paired increments); a snapshot must
  // therefore never observe a != b.
  Word a(val(0)), b(val(0));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t va = McasDcas::load(a);
        (void)McasDcas::dcas(a, b, va, va, val(decode_payload(va) + 1),
                             val(decode_payload(va) + 1));
      }
    });
  }
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t va = 0, vb = 0;
    McasDcas::snapshot(a, b, va, vb);
    ASSERT_EQ(va, vb) << "snapshot observed a torn pair";
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

TEST(Mcas, HelpersCompleteAStalledOperation) {
  // We cannot literally freeze a thread mid-DCAS from outside, but we can
  // verify the observable consequence of helping: under heavy contention
  // with more threads than cores, every operation still completes and the
  // help counter advances.
  Telemetry::reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  Word a(val(0)), b(val(0));
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        for (;;) {
          const std::uint64_t va = McasDcas::load(a);
          const std::uint64_t vb = McasDcas::load(b);
          if (McasDcas::dcas(a, b, va, vb, val(decode_payload(va) + 1),
                             val(decode_payload(vb) + 1))) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(McasDcas::load(a), val(kThreads * kIters));
  EXPECT_EQ(McasDcas::load(b), val(kThreads * kIters));
}

TEST(Mcas, DescriptorsAreReclaimed) {
  // Exited threads from other tests may have stranded retired descriptors
  // in their (now unowned) slots, so measure this thread's *delta*: our
  // own retires must drain once we quiesce and collect.
  auto& domain = dcd::reclaim::global_ebr_domain();
  domain.collect();
  const std::uint64_t base = domain.pending_count();
  Word a(val(0)), b(val(0));
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = McasDcas::load(a);
    const std::uint64_t vb = McasDcas::load(b);
    ASSERT_TRUE(McasDcas::dcas(a, b, va, vb, val(i + 1), val(i + 1)));
  }
  domain.collect();
  domain.collect();
  domain.collect();
  const std::uint64_t now = domain.pending_count();
  // Allow a small tail for the last drain batch.
  EXPECT_LT(now, base + 512) << "own descriptors not reclaimed";
}

TEST(Mcas, ManyWordsManyThreadsNoLostUpdates) {
  constexpr int kWords = 8;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  Word words[kWords];
  for (auto& w : words) McasDcas::store_init(w, val(0));
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      dcd::util::Xoshiro256 rng(t + 1);
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t x = rng.below(kWords);
        std::size_t y = rng.below(kWords);
        if (y == x) y = (y + 1) % kWords;
        Word& first = words[std::min(x, y)];
        Word& second = words[std::max(x, y)];
        for (;;) {
          const std::uint64_t v1 = McasDcas::load(first);
          const std::uint64_t v2 = McasDcas::load(second);
          if (McasDcas::dcas(first, second, v1, v2,
                             val(decode_payload(v1) + 1),
                             val(decode_payload(v2) + 1))) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  for (auto& w : words) total += decode_payload(McasDcas::load(w));
  EXPECT_EQ(total, static_cast<std::uint64_t>(2 * kThreads * kIters));
}

TEST(Mcas, ViewFormRetriesTransientFailures) {
  Word a(val(1)), b(val(2));
  std::uint64_t oa = val(1), ob = val(2);
  EXPECT_TRUE(McasDcas::dcas_view(a, b, oa, ob, val(3), val(4)));
  oa = val(1);
  ob = val(2);
  EXPECT_FALSE(McasDcas::dcas_view(a, b, oa, ob, val(9), val(9)));
  EXPECT_EQ(oa, val(3));
  EXPECT_EQ(ob, val(4));
}


TEST(McasDescriptorCache, SurvivesRegistrySlotRecycling) {
  // More threads over the test's life than ThreadRegistry::kMaxThreads, at
  // most kLive at once, so registry slots (and the per-slot descriptor
  // caches) pass from exited threads to new ones along with the limbo
  // those threads left behind. Each thread DCASes a private pair, which
  // only its own cache serves, and one pair shared with everyone.
  constexpr int kLive = 4;
  constexpr int kWaves =
      static_cast<int>(dcd::util::ThreadRegistry::kMaxThreads) / kLive + 8;
  constexpr int kBurst = 100;
  Word shared_a(val(0)), shared_b(val(0));
  std::atomic<int> bad{0};
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::thread> ts;
    for (int t = 0; t < kLive; ++t) {
      ts.emplace_back([&] {
        Word a(val(0)), b(val(0));
        for (int i = 0; i < kBurst; ++i) {
          if (!McasDcas::dcas(a, b, val(i), val(i), val(i + 1), val(i + 1))) {
            bad.fetch_add(1);
          }
          for (;;) {
            const std::uint64_t va = McasDcas::load(shared_a);
            const std::uint64_t vb = McasDcas::load(shared_b);
            if (McasDcas::dcas(shared_a, shared_b, va, vb,
                               val(decode_payload(va) + 1),
                               val(decode_payload(vb) + 1))) {
              break;
            }
          }
        }
        if (McasDcas::load(a) != val(kBurst) ||
            McasDcas::load(b) != val(kBurst)) {
          bad.fetch_add(1);
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  constexpr std::uint64_t kTotal = std::uint64_t{kWaves} * kLive * kBurst;
  EXPECT_EQ(McasDcas::load(shared_a), val(kTotal));
  EXPECT_EQ(McasDcas::load(shared_b), val(kTotal));

  // This thread's own limbo still drains into its cache afterwards.
  auto& domain = dcd::reclaim::global_ebr_domain();
  domain.collect();
  const std::uint64_t base = domain.pending_count();
  Word a(val(0)), b(val(0));
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(McasDcas::dcas(a, b, val(i), val(i), val(i + 1), val(i + 1)));
  }
  for (int i = 0; i < 3; ++i) domain.collect();
  EXPECT_LT(domain.pending_count(), base + 512)
      << "own descriptors not reclaimed";
}

}  // namespace
