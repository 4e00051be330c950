// E1 — primitive cost ladder (§2's architectural assumption).
//
// "We assume ... that DCAS is a relatively expensive operation, that is,
//  has longer latency than traditional CAS, which in turn has longer
//  latency than either a read or a write. We assume this is true even when
//  operations are executed sequentially."
//
// Rows: uncontended read / write / CAS(success|fail) / hardware-adjacent
// DCAS (cmpxchg16b) / each software DCAS emulation (success|fail), plus
// 2- and 4-thread contended CAS and DCAS, and DCAS on per-thread private
// words (the emulation's own shared traffic). The expected shape:
//   read < write < CAS < cmpxchg16b < lock-emulated DCAS < MCAS DCAS,
// confirming the paper's ordering with software DCAS being *much* more
// expensive than the hardware the paper hoped for.
#include <benchmark/benchmark.h>

#include <atomic>

#include "bench_common.hpp"
#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/util/align.hpp"

namespace {

using namespace dcd::dcas;
using dcd::bench::print_topology_once;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

// Shared targets: static so ->Threads(n) variants contend on one site.
Word g_a(val(0));
Word g_b(val(0));
std::atomic<std::uint64_t> g_word{0};
AdjacentPair g_pair;

void BM_Read(benchmark::State& state) {
  print_topology_once();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_word.load(std::memory_order_acquire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Read);

void BM_Write(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    g_word.store(++x, std::memory_order_release);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Write);

void BM_CasSuccess(benchmark::State& state) {
  std::uint64_t expected = g_word.load();
  for (auto _ : state) {
    if (!g_word.compare_exchange_strong(expected, expected + 1)) {
      // single-threaded: refresh and continue
    } else {
      ++expected;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CasSuccess);

void BM_CasFailure(benchmark::State& state) {
  g_word.store(7);
  for (auto _ : state) {
    std::uint64_t wrong = 0xdead;
    benchmark::DoNotOptimize(
        g_word.compare_exchange_strong(wrong, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CasFailure);

void BM_CasContended(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t cur = g_word.load(std::memory_order_relaxed);
    while (!g_word.compare_exchange_weak(cur, cur + 1)) {
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CasContended)->Threads(2)->Threads(4);

void BM_HwAdjacentDcas(benchmark::State& state) {
  std::uint64_t lo = 0, hi = 0;
  Cmpxchg16bDcas::read(g_pair, lo, hi);
  for (auto _ : state) {
    if (!Cmpxchg16bDcas::dcas(g_pair, lo, hi, lo + 1, hi + 1)) {
      Cmpxchg16bDcas::read(g_pair, lo, hi);
    } else {
      ++lo;
      ++hi;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HwAdjacentDcas);
BENCHMARK(BM_HwAdjacentDcas)->Threads(2)->Threads(4);

template <typename P>
void BM_DcasSuccess(benchmark::State& state) {
  std::uint64_t x = decode_payload(P::load(g_a));
  std::uint64_t y = decode_payload(P::load(g_b));
  for (auto _ : state) {
    if (P::dcas(g_a, g_b, val(x), val(y), val(x + 1), val(y + 1))) {
      ++x;
      ++y;
    } else {
      x = decode_payload(P::load(g_a));
      y = decode_payload(P::load(g_b));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcasSuccess<GlobalLockDcas>);
BENCHMARK(BM_DcasSuccess<StripedLockDcas>);
BENCHMARK(BM_DcasSuccess<McasDcas>);
BENCHMARK(BM_DcasSuccess<GlobalLockDcas>)->Threads(2)->Threads(4);
BENCHMARK(BM_DcasSuccess<StripedLockDcas>)->Threads(2)->Threads(4);
BENCHMARK(BM_DcasSuccess<McasDcas>)->Threads(2)->Threads(4);

template <typename P>
void BM_DcasFailure(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(P::dcas(g_a, g_b, val(1ull << 40),
                                     val(1ull << 40), val(0), val(0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcasFailure<GlobalLockDcas>);
BENCHMARK(BM_DcasFailure<StripedLockDcas>);
BENCHMARK(BM_DcasFailure<McasDcas>);

// Each thread DCASes its own private pair, so the words never conflict:
// any slowdown as threads are added comes from the policy's shared
// bookkeeping (lock stripes, descriptor pools, reclamation counters), not
// from the data.
template <typename P>
void BM_DcasDisjoint(benchmark::State& state) {
  struct alignas(dcd::util::kCacheLineSize) Pair {
    Word a{val(0)};
    Word b{val(0)};
  } pair;
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        P::dcas(pair.a, pair.b, val(x), val(x), val(x + 1), val(x + 1)));
    ++x;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DcasDisjoint<GlobalLockDcas>)->ThreadRange(1, 4)->UseRealTime();
BENCHMARK(BM_DcasDisjoint<StripedLockDcas>)->ThreadRange(1, 4)->UseRealTime();
BENCHMARK(BM_DcasDisjoint<McasDcas>)->ThreadRange(1, 4)->UseRealTime();

// Managed load through each policy (MCAS loads may help in-flight ops).
template <typename P>
void BM_ManagedLoad(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(P::load(g_a));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ManagedLoad<GlobalLockDcas>);
BENCHMARK(BM_ManagedLoad<StripedLockDcas>);
BENCHMARK(BM_ManagedLoad<McasDcas>);

}  // namespace
