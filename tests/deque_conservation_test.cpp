// Value conservation under the executor's access pattern, on the deque
// alone: an owner thread works the right end (pushes 1–4 values, then pops
// 1–5) while a thief loops pop_left. Every pushed value must come out
// exactly once — from the owner, the thief, or the solo drain at the end
// of each round.
//
// This is the real-thread reproduction of the two-null splice erratum
// (DESIGN.md §2): without the adjacency check a thief's splice over a
// stale neighbour unlinks a live node, about once in 40k–200k values on
// a 4-vCPU x86 host, far rarer than the linearizability stress tests can
// see. The runs stop at the first round that loses or duplicates a value.
//
// ListDequeDummy had the same erratum, and its pops allocate a dummy node:
// a preempted thief can leave the pool in EBR limbo, and two pops that
// wait for a dummy while pinned block each other's epoch advance for good.
// A watchdog turns such a livelock into a failure within seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <vector>

#include "dcd/dcas/policies.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/list_deque_dummy.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/rng.hpp"

namespace {

using namespace dcd;
using Clock = std::chrono::steady_clock;

struct Tally {
  std::uint64_t pushed = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicated = 0;
  int rounds = 0;
};

// How long a round may go without a completed operation before the
// watchdog calls it a livelock. A push gives up on a stalled pool after
// about 0.19 s and a pop's unpinned retries sleep at most 8.2 ms, so a
// working deque never comes close.
constexpr auto kStuckAfter = std::chrono::seconds(5);

// Aborts the test binary when neither thread of a round completes an
// operation for kStuckAfter, so a livelocked pop fails the test in seconds
// instead of running into the ctest timeout. Each thread publishes its own
// count on its own cache line, so watching does not perturb the race.
class Watchdog {
 public:
  Watchdog() : thread_([this] { watch(); }) {}
  ~Watchdog() {
    done_.store(true, std::memory_order_release);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void tick(std::size_t who) {
    ops_[who]->store(ops_[who]->load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

 private:
  std::uint64_t total() const {
    return ops_[0]->load(std::memory_order_relaxed) +
           ops_[1]->load(std::memory_order_relaxed);
  }

  void watch() {
    std::uint64_t last = total();
    Clock::time_point since = Clock::now();
    while (!done_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (const std::uint64_t now = total(); now != last) {
        last = now;
        since = Clock::now();
      } else if (Clock::now() - since > kStuckAfter) {
        std::fprintf(stderr,
                     "watchdog: no deque operation completed in %lld s, "
                     "livelock\n",
                     static_cast<long long>(kStuckAfter.count()));
        std::abort();
      }
    }
  }

  // One counter per thread: [0] the owner, [1] the thief.
  std::array<util::CacheAligned<std::atomic<std::uint64_t>>, 2> ops_{};
  std::atomic<bool> done_{false};
  std::thread thread_;  // declared last: starts once the counters exist
};

// One round: values 1..n are pushed in order, so `seen` is indexed by
// value. Each thread keeps its own list of popped values; the round's
// tally is merged after both have joined.
template <typename D>
void run_round(Clock::duration length, std::uint64_t seed, Tally& tally) {
  D d;
  Watchdog watchdog;
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> stolen;
  std::thread thief([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (std::optional<std::uint64_t> v = d.pop_left()) stolen.push_back(*v);
      watchdog.tick(1);
    }
  });

  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> owned;
  std::uint64_t next = 1;
  const Clock::time_point end = Clock::now() + length;
  while (Clock::now() < end) {
    for (int k = 0; k < 256; ++k) {
      const std::uint64_t pushes = 1 + rng.below(4);
      // A full pool (nodes waiting out a grace period behind a preempted
      // thief) is a legal answer (footnote 3): the value is not pushed.
      for (std::uint64_t i = 0; i < pushes; ++i) {
        if (d.push_right(next) == deque::PushResult::kOkay) ++next;
        watchdog.tick(0);
      }
      const std::uint64_t pops = 1 + rng.below(5);
      for (std::uint64_t i = 0; i < pops; ++i) {
        if (std::optional<std::uint64_t> v = d.pop_right()) owned.push_back(*v);
        watchdog.tick(0);
      }
    }
  }
  stop.store(true, std::memory_order_release);
  thief.join();
  while (std::optional<std::uint64_t> v = d.pop_right()) owned.push_back(*v);

  const std::uint64_t n = next - 1;
  std::vector<std::uint8_t> seen(n + 1, 0);
  for (const std::vector<std::uint64_t>* got : {&owned, &stolen}) {
    for (const std::uint64_t v : *got) {
      ASSERT_TRUE(v >= 1 && v <= n) << "value " << v << " was never pushed";
      if (seen[v]++ != 0) ++tally.duplicated;
    }
  }
  for (std::uint64_t v = 1; v <= n; ++v) tally.lost += seen[v] == 0;
  tally.pushed += n;
  ++tally.rounds;
}

// Rounds of one second until `budget` is spent or a round breaks
// conservation.
template <typename D>
void expect_conserved(Clock::duration budget) {
  Tally tally;
  const Clock::time_point end = Clock::now() + budget;
  std::uint64_t seed = 0x5eed;
  do {
    const Clock::duration left = end - Clock::now();
    run_round<D>(std::min<Clock::duration>(left, std::chrono::seconds(1)),
                 seed++, tally);
  } while (!::testing::Test::HasFatalFailure() && tally.lost == 0 &&
           tally.duplicated == 0 && Clock::now() < end);
  EXPECT_EQ(tally.lost, 0u) << "of " << tally.pushed << " values in "
                            << tally.rounds << " rounds";
  EXPECT_EQ(tally.duplicated, 0u) << "of " << tally.pushed << " values in "
                                  << tally.rounds << " rounds";
  EXPECT_GT(tally.pushed, 0u);
}

using List = deque::ListDeque<std::uint64_t, dcas::GlobalLockDcas>;
using ListDummy = deque::ListDequeDummy<std::uint64_t, dcas::GlobalLockDcas>;

TEST(DequeConservation, ListOwnerRightThiefLeft) {
  expect_conserved<List>(std::chrono::seconds(10));
}

// The same check in a budget the sanitizer CI jobs can afford.
TEST(DequeConservation, ListOwnerRightThiefLeftShort) {
  expect_conserved<List>(std::chrono::seconds(1));
}

TEST(DequeConservation, ListDummyOwnerRightThiefLeft) {
  expect_conserved<ListDummy>(std::chrono::seconds(10));
}

TEST(DequeConservation, ListDummyOwnerRightThiefLeftShort) {
  expect_conserved<ListDummy>(std::chrono::seconds(1));
}

}  // namespace
