// Unit tests for the util substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "dcd/util/align.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stats.hpp"
#include "dcd/util/stopwatch.hpp"
#include "dcd/util/thread_registry.hpp"
#include "dcd/util/topology.hpp"

namespace {

using namespace dcd::util;

TEST(Align, CacheAlignedIsPaddedAndAligned) {
  CacheAligned<int> a(7);
  EXPECT_EQ(*a, 7);
  EXPECT_EQ(sizeof(a), kCacheLineSize);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a) % kCacheLineSize, 0u);
}

TEST(Align, ArrayElementsOnDistinctLines) {
  CacheAligned<char> arr[4];
  for (int i = 1; i < 4; ++i) {
    const auto d = reinterpret_cast<std::uintptr_t>(&arr[i]) -
                   reinterpret_cast<std::uintptr_t>(&arr[i - 1]);
    EXPECT_EQ(d, kCacheLineSize);
  }
}

TEST(Backoff, PauseProgressesWithoutHanging) {
  Backoff b(16);
  for (int i = 0; i < 100; ++i) b.pause();  // must escalate to yield, not spin
  b.reset();
  b.pause();
  SUCCEED();
}

TEST(Backoff, PausesCountsExactlyAcrossRegimes) {
  // pauses() must be the exact pause() call count even after the spin
  // budget stops doubling (the yield regime) — the old log2-of-budget
  // derivation froze there and under-reported retry pressure.
  Backoff b(16);
  EXPECT_EQ(b.pauses(), 0u);
  // Budgets 1,2,4,8,16 are <= limit; the 6th call enters yield regime.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    b.pause();
    EXPECT_EQ(b.pauses(), i);
  }
  EXPECT_GT(b.spin_budget(), 16u);  // escalated past the limit
  for (std::uint64_t i = 6; i <= 50; ++i) {
    b.pause();  // yield regime: count must keep advancing
    EXPECT_EQ(b.pauses(), i);
  }
}

TEST(Backoff, ResetZeroesCountAndBudget) {
  Backoff b(4);
  for (int i = 0; i < 10; ++i) b.pause();
  b.reset();
  EXPECT_EQ(b.pauses(), 0u);
  EXPECT_EQ(b.yields(), 0u);
  EXPECT_EQ(b.spin_budget(), 1u);
  b.pause();
  EXPECT_EQ(b.pauses(), 1u);
}

TEST(Backoff, YieldsCountsEscalationsExactly) {
  // The escalation metric must be an actual event count, not something
  // derived from the spin budget: the budget stops doubling once it passes
  // the limit, so a budget-derived "pressure" silently caps right where
  // the yield regime — the regime worth measuring — begins.
  Backoff b(16);
  // Budgets 1,2,4,8,16 are spin-regime pauses; none of them yields.
  for (int i = 0; i < 5; ++i) b.pause();
  EXPECT_EQ(b.pauses(), 5u);
  EXPECT_EQ(b.yields(), 0u);
  const std::uint32_t saturated = b.spin_budget();
  EXPECT_GT(saturated, 16u);
  // Every further pause is a yield, and the count keeps advancing even
  // though the budget is frozen.
  for (std::uint64_t i = 1; i <= 40; ++i) {
    b.pause();
    EXPECT_EQ(b.yields(), i);
    EXPECT_EQ(b.spin_budget(), saturated);
  }
  EXPECT_EQ(b.pauses(), 45u);
  b.reset();
  EXPECT_EQ(b.yields(), 0u);
}

TEST(Backoff, BudgetDoublingSaturatesInsteadOfWrapping) {
  // With spin_limit >= 2^31 the old `current_ *= 2` wrapped uint32 to 0,
  // turning every later pause() into a zero-spin busy loop. next_budget is
  // pure so the boundary is testable without spinning 2^31 times.
  constexpr std::uint32_t kMax = ~std::uint32_t{0};
  static_assert(Backoff::next_budget(1) == 2);
  static_assert(Backoff::next_budget(1u << 30) == 1u << 31);
  static_assert(Backoff::next_budget(1u << 31) == kMax);   // would wrap to 0
  static_assert(Backoff::next_budget(kMax) == kMax);       // stays saturated
  static_assert(Backoff::next_budget(kMax / 2) == kMax - 1);
  EXPECT_EQ(Backoff::next_budget((1u << 31) + 5), kMax);
}

TEST(AdaptiveBackoff, BudgetGrowsOnFailureAndDecaysOnSuccess) {
  AdaptiveBackoff b;
  b.reset();
  EXPECT_EQ(b.spin_budget(), 1u);
  for (int i = 0; i < 4; ++i) b.on_failure();  // 1 -> 2 -> 4 -> 8 -> 16
  EXPECT_EQ(b.spin_budget(), 16u);
  EXPECT_EQ(b.pauses(), 4u);
  b.on_success();
  EXPECT_EQ(b.spin_budget(), 8u);
  // Decay floors at 1, never 0 (a zero budget would make the next
  // failure's spin a no-op and defeat the adaptation).
  for (int i = 0; i < 10; ++i) b.on_success();
  EXPECT_EQ(b.spin_budget(), 1u);
}

TEST(AdaptiveBackoff, YieldRegimeClampsBeforeDecaying) {
  AdaptiveBackoff b;
  b.reset();
  // Drive far past the spin limit into the yield regime...
  for (int i = 0; i < 40; ++i) b.on_failure();
  EXPECT_GT(b.spin_budget(), AdaptiveBackoff::kDefaultSpinLimit);
  EXPECT_TRUE(b.yielding());
  // ...one success must clamp back under the limit before halving, so the
  // next contended phase spins instead of yielding forever.
  b.on_success();
  EXPECT_LE(b.spin_budget(), AdaptiveBackoff::kDefaultSpinLimit / 2);
  EXPECT_FALSE(b.yielding());
}

TEST(AdaptiveBackoff, YieldsCountOnlyEscalatedFailures) {
  AdaptiveBackoff b;
  b.reset();
  // Ride the budget up to the yield regime: 1,2,...,1024 are spin-regime
  // failures (11 of them), the 12th onwards escalates.
  int spins = 0;
  while (b.spin_budget() <= AdaptiveBackoff::kDefaultSpinLimit) {
    b.on_failure();
    ++spins;
  }
  EXPECT_EQ(b.yields(), 0u);
  b.on_failure();
  b.on_failure();
  EXPECT_EQ(b.yields(), 2u);
  EXPECT_EQ(b.pauses(), static_cast<std::uint64_t>(spins) + 2u);
  // Success decays back under the limit; the escalation history survives
  // as a counter (it is telemetry, not state).
  b.on_success();
  b.on_failure();
  EXPECT_EQ(b.yields(), 2u);
  b.reset();
  EXPECT_EQ(b.yields(), 0u);
}

TEST(AdaptiveBackoff, SessionsShareTheThreadsPersistentState) {
  // The point of the refactor: unlike a fresh `Backoff` local per call,
  // contention observed by one operation primes the next operation's
  // budget on the same thread.
  AdaptiveBackoff::tl().reset();
  {
    AdaptiveBackoff::Session s;
    s.pause();
    s.pause();
    s.pause();
  }  // dtor = one success decay: 8 -> 4
  EXPECT_EQ(AdaptiveBackoff::tl().spin_budget(), 4u);
  EXPECT_EQ(AdaptiveBackoff::tl().pauses(), 3u);
  {
    AdaptiveBackoff::Session s;  // new op, same thread: budget carried over
    s.pause();                   // spins 4, grows to 8
  }
  EXPECT_EQ(AdaptiveBackoff::tl().spin_budget(), 4u);  // 8 decayed by dtor
  EXPECT_EQ(AdaptiveBackoff::tl().pauses(), 4u);
  AdaptiveBackoff::tl().reset();
}

TEST(AdaptiveBackoff, ThreadsHaveIndependentState) {
  AdaptiveBackoff::tl().reset();
  {
    AdaptiveBackoff::Session s;
    for (int i = 0; i < 8; ++i) s.pause();
  }
  std::uint64_t other_pauses = ~0ull;
  std::thread t([&] { other_pauses = AdaptiveBackoff::tl().pauses(); });
  t.join();
  EXPECT_EQ(other_pauses, 0u);
  EXPECT_EQ(AdaptiveBackoff::tl().pauses(), 8u);
  AdaptiveBackoff::tl().reset();
}

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDistinctSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.chance(10, 10));
    EXPECT_FALSE(rng.chance(0, 10));
  }
}

TEST(Barrier, ReleasesAllParties) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> in_round{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        in_round.fetch_add(1);
        barrier.arrive_and_wait();
        // All kThreads must have arrived before anyone proceeds.
        if (in_round.load() < kThreads * (r + 1)) failed.store(true);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(Stats, SummaryMatchesHandComputation) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, SummaryMergeEqualsCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    b.add(i * 1.5);
    all.add(i * 1.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MergeIntoEmpty) {
  Summary a, b;
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

TEST(Stats, HistogramBucketsAndQuantiles) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1000);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(9), 1u);  // 1000 in [512, 1024)
  EXPECT_GE(h.quantile(1.0), 1000u);
  EXPECT_LE(h.quantile(0.2), 1u);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Stats, HistogramMerge) {
  Log2Histogram a, b;
  a.add(5);
  b.add(500);
  a.merge(b);
  EXPECT_EQ(a.total(), 2u);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(LatencyHistogram::bucket_representative(
                  LatencyHistogram::bucket_index(v)),
              v);
  }
}

TEST(LatencyHistogram, RepresentativeWithinSixPercentOfSample) {
  // The sub-bucketed mapping bounds quantisation error to one sub-bucket
  // width (1/16 of the octave base), so representatives track samples to
  // ~6% — tight enough that a 25% p99-inflation gate cannot be tripped or
  // masked by bucketing alone.
  for (std::uint64_t v : {17ull, 100ull, 999ull, 1500ull, 123456ull,
                          987654321ull, (1ull << 40) + 12345ull,
                          (1ull << 62) + (1ull << 55)}) {
    const int idx = LatencyHistogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, LatencyHistogram::kBuckets);
    const std::uint64_t rep = LatencyHistogram::bucket_representative(idx);
    const double err =
        std::abs(static_cast<double>(rep) - static_cast<double>(v)) /
        static_cast<double>(v);
    EXPECT_LT(err, 1.0 / LatencyHistogram::kSub) << "v=" << v;
  }
}

TEST(LatencyHistogram, BucketIndexIsMonotone) {
  int prev = -1;
  for (std::uint64_t v = 0; v < 5000; ++v) {
    const int idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(LatencyHistogram, PercentilesOfKnownDistribution) {
  // 1000 samples: 990 at ~100ns, 9 at ~1000ns, 1 at ~100000ns. p50 must
  // sit in the 100ns bucket, p99 at 100ns (rank 990 is still a 100),
  // p99.9 in the 1000ns bucket, p100 in the 100000ns bucket.
  LatencyHistogram h;
  for (int i = 0; i < 990; ++i) h.record(100);
  for (int i = 0; i < 9; ++i) h.record(1000);
  h.record(100000);
  EXPECT_EQ(h.total(), 1000u);
  const auto near = [](std::uint64_t got, std::uint64_t want) {
    const double err = std::abs(static_cast<double>(got) -
                                static_cast<double>(want)) /
                       static_cast<double>(want);
    return err < 1.0 / LatencyHistogram::kSub;
  };
  EXPECT_TRUE(near(h.percentile(0.50), 100)) << h.percentile(0.50);
  EXPECT_TRUE(near(h.percentile(0.99), 100)) << h.percentile(0.99);
  EXPECT_TRUE(near(h.percentile(0.999), 1000)) << h.percentile(0.999);
  EXPECT_TRUE(near(h.percentile(1.0), 100000)) << h.percentile(1.0);
  EXPECT_EQ(LatencyHistogram().percentile(0.5), 0u);  // empty -> 0
}

TEST(LatencyHistogram, MergeEqualsCombinedStreamAndResetClears) {
  LatencyHistogram a, b, all;
  Xoshiro256 rng(11);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(100000);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), all.total());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(q), all.percentile(q)) << q;
  }
  a.reset();
  EXPECT_EQ(a.total(), 0u);
  EXPECT_EQ(a.percentile(0.99), 0u);
}

TEST(Topology, PinCurrentThreadIsBestEffort) {
  // On Linux the mechanism must be compiled in and pinning to slot 0 (any
  // host has a CPU 0) must succeed; elsewhere it reports unsupported
  // rather than failing the build. Slots wrap modulo hardware_threads, so
  // an out-of-range slot is also a valid request.
  const std::string mech = affinity_mechanism();
  EXPECT_FALSE(mech.empty());
#if defined(__linux__) && defined(_GNU_SOURCE)
  EXPECT_EQ(mech, "pthread_setaffinity_np");
  std::thread t([] {
    EXPECT_TRUE(pin_current_thread(0));
    EXPECT_TRUE(pin_current_thread(probe_topology().hardware_threads + 3));
  });
  t.join();
#else
  EXPECT_EQ(mech, "unsupported");
  EXPECT_FALSE(pin_current_thread(0));
#endif
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(sw.elapsed_ns(), 1'000'000u);
  sw.reset();
  EXPECT_LT(sw.elapsed_s(), 1.0);
}

TEST(ThreadRegistry, StableIdWithinThread) {
  const std::size_t a = ThreadRegistry::self();
  const std::size_t b = ThreadRegistry::self();
  EXPECT_EQ(a, b);
  EXPECT_LT(a, ThreadRegistry::kMaxThreads);
  EXPECT_TRUE(ThreadRegistry::slot_live(a));
}

TEST(ThreadRegistry, DistinctIdsForConcurrentThreads) {
  constexpr int kThreads = 8;
  std::vector<std::size_t> ids(kThreads);
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      ids[t] = ThreadRegistry::self();
      barrier.arrive_and_wait();  // hold the slot until everyone has one
    });
  }
  for (auto& t : ts) t.join();
  std::set<std::size_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads));
}

TEST(ThreadRegistry, SlotsRecycleAfterThreadExit) {
  std::size_t first = 0;
  std::thread([&] { first = ThreadRegistry::self(); }).join();
  // The exited thread's slot must be claimable again.
  std::size_t again = 0;
  std::thread([&] { again = ThreadRegistry::self(); }).join();
  EXPECT_EQ(first, again);
}

TEST(Topology, ProbeIsSane) {
  const Topology t = probe_topology();
  EXPECT_GE(t.hardware_threads, 1u);
  EXPECT_FALSE(t.describe().empty());
}

}  // namespace
