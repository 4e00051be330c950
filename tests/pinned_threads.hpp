// Test threads that really run at the same time.
//
// A freshly started, short-lived thread tends to stay on the CPU of the
// thread that started it, so N threads released by a barrier can still run
// one after another, and a stress test then exercises no concurrency at
// all. run_pinned_threads() pins each thread to its own CPU before the
// barrier and reports whether the bodies overlapped, so a test that needs
// contention can assert that it got some.
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "dcd/util/barrier.hpp"
#include "dcd/util/topology.hpp"

namespace dcd::test {

// Runs body(t) for t in [0, n) on n threads, thread t pinned to CPU
// t mod ncpu (util::pin_current_thread), all released together by a
// SpinBarrier. Returns the overlap witness: the peak number of bodies
// running at once. 1 means the threads ran one after another.
template <typename Body>
std::size_t run_pinned_threads(std::size_t n, Body body) {
  util::SpinBarrier barrier(n);
  std::atomic<std::size_t> inside{0};
  std::atomic<std::size_t> peak{0};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      (void)util::pin_current_thread(t);
      barrier.arrive_and_wait();
      const std::size_t now = inside.fetch_add(1) + 1;
      std::size_t seen = peak.load();
      while (seen < now && !peak.compare_exchange_weak(seen, now)) {
      }
      body(t);
      inside.fetch_sub(1);
    });
  }
  for (std::thread& th : threads) th.join();
  return peak.load();
}

}  // namespace dcd::test
