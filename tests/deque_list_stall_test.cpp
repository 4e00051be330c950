// Footnote 3 under a stalled reader: a list-deque push reports "full" only
// when the allocator is truly out of nodes, not while freed nodes wait in
// EBR limbo for a thread pinned at an older epoch (push_past_stalls in
// dcd/deque/types.hpp). The straggler here is a thread holding a guard on
// the deque's own domain, which is what a thread descheduled inside an
// operation looks like to everyone else.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/list_deque_dummy.hpp"

namespace {

using namespace dcd::deque;
using dcd::reclaim::EbrReclaim;
using Clock = std::chrono::steady_clock;

// Holds a guard on `reclaimer`'s domain from construction until release().
class Straggler {
 public:
  explicit Straggler(EbrReclaim& reclaimer)
      : thread_([this, &reclaimer] {
          EbrReclaim::Guard guard(reclaimer);
          pinned_.store(true, std::memory_order_release);
          while (!released_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }) {
    while (!pinned_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~Straggler() {
    release();
    thread_.join();
  }
  Straggler(const Straggler&) = delete;
  Straggler& operator=(const Straggler&) = delete;
  void release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> pinned_{false};
  std::atomic<bool> released_{false};
  std::thread thread_;
};

template <typename D>
class ListStallTest : public ::testing::Test {};

using Deques = ::testing::Types<ListDeque<std::uint64_t>,
                                ListDequeDummy<std::uint64_t>>;
TYPED_TEST_SUITE(ListStallTest, Deques);

TYPED_TEST(ListStallTest, FullWithoutStragglerReturnsAtOnce) {
  // Every node is live in the deque and nothing is in limbo: no amount of
  // waiting frees one, so "full" must come without the stall retries.
  TypeParam d(64);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_EQ(d.push_right(i), PushResult::kOkay);
  }
  const auto t0 = Clock::now();
  EXPECT_EQ(d.push_right(99), PushResult::kFull);
  EXPECT_EQ(d.push_left(99), PushResult::kFull);
  EXPECT_LT(Clock::now() - t0, std::chrono::milliseconds(50))
      << "a truly full deque waited out stall retries";
}

// The two tests below churn a ListDeque only. ListDequeDummy's pops also
// allocate (the dummy node), and a pop that cannot allocate spins inside
// its guard, so under a straggler that never unpins it would never return.

TEST(ListStallChurnTest, StallReleasedWithinBoundIsNotFull) {
  // Two threads push and pop while a straggler pins the epoch. The deque
  // holds at most a few dozen items, so every refused push would be limbo,
  // not capacity. The straggler lets go once the pool has run dry, well
  // inside the stall bound, and no push may have reported "full".
  ListDeque<std::uint64_t> d(256);
  constexpr int kChurners = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kChurners; ++t) {
    ts.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        if (d.push_right((static_cast<std::uint64_t>(t) << 32) | i) !=
            PushResult::kOkay) {
          refused.fetch_add(1);
        }
        (void)(t == 0 ? d.pop_left() : d.pop_right());
      }
    });
  }
  {
    Straggler straggler(d.reclaimer());
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (d.pool().allocation_failures() == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Churn on past the release so the limbo ages out through the pushes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  EXPECT_GT(d.pool().allocation_failures(), 0u)
      << "the pool never ran dry, so no push met the stall";
  EXPECT_EQ(refused.load(), 0u);
}

TEST(ListStallChurnTest, StragglerThatNeverUnpinsGetsFull) {
  // One thread cycles push/pop until the straggler has pinned every free
  // node in limbo. Its push must then give up after the bounded retries:
  // "full", not a hang, and only after actually waiting.
  ListDeque<std::uint64_t> d(64);
  Straggler straggler(d.reclaimer());
  PushResult r = PushResult::kOkay;
  Clock::duration last_push{};
  for (std::uint64_t i = 0; i < 100000 && r == PushResult::kOkay; ++i) {
    const auto t0 = Clock::now();
    r = d.push_right(i);
    last_push = Clock::now() - t0;
    if (r == PushResult::kOkay) {
      ASSERT_TRUE(d.pop_left().has_value());
    }
  }
  ASSERT_EQ(r, PushResult::kFull);
  EXPECT_GE(last_push, std::chrono::milliseconds(150))
      << "gave up without the stall retries";
  EXPECT_LT(last_push, std::chrono::seconds(10));

  // Once the straggler lets go, the limbo ages out and pushes succeed.
  straggler.release();
  EXPECT_EQ(d.push_right(7), PushResult::kOkay);
}

}  // namespace
