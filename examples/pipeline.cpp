// Bounded pipeline with deque stages.
//
// A classic producer/transformer/consumer pipeline where each stage hands
// items to the next through a deque: normal traffic flows FIFO (push right,
// pop left), but a stage can also *re-inject* an item at the front of its
// input (push left) — e.g. to retry a failed item with priority — which a
// plain FIFO queue cannot express. This is the kind of client the paper's
// general deque serves and a work-stealing-only deque (ABP) cannot.
//
//   $ ./pipeline [items]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "dcd/deque/array_deque.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace dcd::deque;
  const std::uint64_t kItems =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;

  // Bounded stages provide backpressure: a full push means "slow down".
  ArrayDeque<std::uint64_t> stage_a(512);
  ArrayDeque<std::uint64_t> stage_b(512);

  std::atomic<std::uint64_t> retried{0};
  std::atomic<std::uint64_t> checksum{0};
  dcd::util::Stopwatch timer;

  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kItems; ++i) {
      while (stage_a.push_right(i) != PushResult::kOkay) {
        std::this_thread::yield();  // backpressure
      }
    }
  });

  std::thread transformer([&] {
    dcd::util::Xoshiro256 rng(7);
    std::uint64_t processed = 0;
    while (processed < kItems) {
      auto v = stage_a.pop_left();
      if (!v) {
        std::this_thread::yield();
        continue;
      }
      // Simulate a transient failure 1% of the time: the item goes back to
      // the *front* of our input so it is retried before new traffic. If
      // the producer has refilled the slot we just emptied, the input is
      // full and waiting for room would deadlock (only this thread drains
      // it), so the item is retried in place instead.
      if (rng.chance(1, 100) &&
          stage_a.push_left(*v) == PushResult::kOkay) {
        retried.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      ++processed;
      while (stage_b.push_right(*v * 3) != PushResult::kOkay) {
        std::this_thread::yield();
      }
    }
  });

  std::thread consumer([&] {
    std::uint64_t seen = 0;
    std::uint64_t local = 0;
    while (seen < kItems) {
      auto v = stage_b.pop_left();
      if (!v) {
        std::this_thread::yield();
        continue;
      }
      local += *v;
      ++seen;
    }
    checksum.store(local);
  });

  producer.join();
  transformer.join();
  consumer.join();

  const std::uint64_t expect = 3 * (kItems * (kItems + 1) / 2);
  std::printf("pipeline: %llu items in %.3fs, %llu retries, checksum %s\n",
              (unsigned long long)kItems, timer.elapsed_s(),
              (unsigned long long)retried.load(),
              checksum.load() == expect ? "correct" : "WRONG");
  return checksum.load() == expect ? 0 : 1;
}
