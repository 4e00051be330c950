// McasDcas-specific behaviour: descriptor stripping, helping, snapshots,
// descriptor reuse, and lock-freedom under a stalled writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "dcd/dcas/mcas.hpp"
#include "dcd/dcas/telemetry.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/thread_registry.hpp"
#include "pinned_threads.hpp"

// Heap allocations made by the calling thread, counted by this binary's
// replacement operator new.
thread_local std::uint64_t t_heap_allocs = 0;

void* operator new(std::size_t n) {
  ++t_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

TEST(Mcas, DescriptorsAreReusedWithoutAllocation) {
  // Each registry slot owns one MCAS and one RDCSS descriptor for life, so
  // no DCAS or CASN, failing or not, allocates; each initialises exactly
  // the descriptors it uses; and no word keeps a mark once it returns.
  Word a(val(0)), b(val(0)), c(val(0));
  Word* abc[] = {&a, &b, &c};
  ASSERT_TRUE(McasDcas::dcas(a, b, val(0), val(0), val(1), val(1)));
  Telemetry::reset();
  const std::uint64_t allocs_before = t_heap_allocs;
  constexpr int kIters = 5000;
  int wrong = 0;
  int marked = 0;
  for (int i = 1; i <= kIters; ++i) {
    const std::uint64_t v = val(i), next = val(i + 1);
    // Succeeds: 1 MCAS + 2 RDCSS descriptors.
    if (!McasDcas::dcas(a, b, v, v, next, next)) ++wrong;
    // Fails on its first word: 1 MCAS + 1 RDCSS descriptor.
    if (McasDcas::dcas(a, b, v, v, val(0), val(0))) ++wrong;
    // Succeeds: 1 MCAS + 3 RDCSS descriptors.
    std::uint64_t olds[] = {next, next, val(i - 1)};
    std::uint64_t news[] = {next, next, val(i)};
    if (!McasDcas::casn(abc, olds, news, 3)) ++wrong;
    for (const Word* w : abc) {
      if (is_descriptor(w->raw.load(std::memory_order_relaxed))) ++marked;
    }
  }
  const std::uint64_t allocs = t_heap_allocs - allocs_before;
  EXPECT_EQ(allocs, 0u) << "the MCAS path allocated";
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(marked, 0) << "a returned operation left its reference behind";
  const Counters ctr = Telemetry::snapshot();
  EXPECT_EQ(ctr.dcas_calls, 3u * kIters);
  EXPECT_EQ(ctr.dcas_failures, 1u * kIters);
  EXPECT_EQ(ctr.descriptors, 9u * kIters);
  EXPECT_EQ(ctr.helps, 0u);
}

TEST(Mcas, ReusedDescriptorsUnderOversubscription) {
  // More threads than cores on three shared words, mixing DCAS transfers,
  // 3-word CASN transfers and pair snapshots, so operations are preempted
  // mid-flight, helped, and their descriptors reused while stale helpers
  // still hold references. Transfers conserve the sum exactly; a 3-word
  // identity CASN is an atomic snapshot that must see that sum too. The
  // threads are pinned so that they overlap (pinned_threads.hpp).
  Telemetry::reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  constexpr std::uint64_t kStart = 1000;
  constexpr std::uint64_t kTotal = 3 * kStart;
  Word w[3];
  for (auto& x : w) McasDcas::store_init(x, val(kStart));
  std::atomic<int> torn{0};
  const auto body = [&](std::size_t t) {
    dcd::util::Xoshiro256 rng(t + 11);
    for (int i = 0; i < kIters; ++i) {
      const std::size_t from = rng.below(3);
      const std::size_t to = (from + 1 + rng.below(2)) % 3;
      const std::size_t other = 3 - from - to;
      switch (rng.below(3)) {
        case 0: {  // move one unit between two words
          for (;;) {
            const std::uint64_t vf = decode_payload(McasDcas::load(w[from]));
            const std::uint64_t vt = decode_payload(McasDcas::load(w[to]));
            if (vf == 0) break;
            if (McasDcas::dcas(w[from], w[to], val(vf), val(vt),
                               val(vf - 1), val(vt + 1))) {
              break;
            }
          }
          break;
        }
        case 1: {  // move two units: one each to the other two words
          Word* addrs[] = {&w[from], &w[to], &w[other]};
          for (;;) {
            std::uint64_t olds[3], news[3];
            for (int k = 0; k < 3; ++k) olds[k] = McasDcas::load(*addrs[k]);
            const std::uint64_t vf = decode_payload(olds[0]);
            if (vf < 2) break;
            news[0] = val(vf - 2);
            news[1] = val(decode_payload(olds[1]) + 1);
            news[2] = val(decode_payload(olds[2]) + 1);
            if (McasDcas::casn(addrs, olds, news, 3)) break;
          }
          break;
        }
        default: {  // pair snapshot, then an atomic triple
          std::uint64_t va = 0, vb = 0;
          McasDcas::snapshot(w[from], w[to], va, vb);
          if (decode_payload(va) + decode_payload(vb) > kTotal) {
            torn.fetch_add(1);
          }
          Word* addrs[] = {&w[0], &w[1], &w[2]};
          for (;;) {
            std::uint64_t olds[3];
            for (int k = 0; k < 3; ++k) olds[k] = McasDcas::load(*addrs[k]);
            if (!McasDcas::casn(addrs, olds, olds, 3)) continue;
            if (decode_payload(olds[0]) + decode_payload(olds[1]) +
                    decode_payload(olds[2]) != kTotal) {
              torn.fetch_add(1);
            }
            break;
          }
        }
      }
    }
  };
  const std::size_t overlap = dcd::test::run_pinned_threads(kThreads, body);
  EXPECT_GE(overlap, 2u) << "the threads ran one after another";
  EXPECT_EQ(torn.load(), 0);
  std::uint64_t sum = 0;
  for (auto& x : w) {
    const std::uint64_t raw = x.raw.load(std::memory_order_relaxed);
    EXPECT_FALSE(is_descriptor(raw)) << "a finished operation left a mark";
    sum += decode_payload(McasDcas::load(x));
  }
  EXPECT_EQ(sum, kTotal);
  EXPECT_GT(Telemetry::snapshot().helps, 0u)
      << "no operation was ever helped; the stress did not contend";
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
  // most kLive at once, so registry slots, and the descriptors they own,
  // pass from exited threads to new ones. A new owner must continue its
  // descriptors' sequence numbers, or a reference of the old owner's that
  // a stale helper still holds could match again. Each thread DCASes a
  // private pair, which no other thread helps, and one pair shared with
  // everyone; neither may keep a mark once the operations return.
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
            McasDcas::load(b) != val(kBurst) ||
            is_descriptor(a.raw.load(std::memory_order_relaxed)) ||
            is_descriptor(b.raw.load(std::memory_order_relaxed))) {
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
  EXPECT_FALSE(is_descriptor(shared_a.raw.load(std::memory_order_relaxed)));
  EXPECT_FALSE(is_descriptor(shared_b.raw.load(std::memory_order_relaxed)));
}

}  // namespace
