// E12 — steal-throughput scaling of the fork/join executor (src/exec).
//
// E6 measures the deques under a hand-rolled steal loop; E12 measures the
// real subsystem: Executor<Deque> with its eventcount park/unpark path,
// worker-local task freelists, and randomized victim scans. Each iteration
// submits one fork/join tree (depth 11 → 4095 tasks) from an external
// thread and waits for the executor to drain it, so the parked→woken edge
// and the injection path are inside the measured region — exactly the
// traffic a server's request loop generates.
//
// Every wait has a deadline (drained_by_deadline): a lost task fails its
// row with SkipWithError instead of hanging the sweep, and the executor,
// which can then never drain, is leaked rather than destroyed.
//
// Accounting is served-only: items processed = tasks actually executed
// (read back from the executor's single-writer telemetry), never the
// submitted count. The per-acquisition latency histogram is the executor's
// own (cfg.latency_stride sampling), merged at quiescence.
//
// Sweep: workers 2/4/8 (state.range(0)) × {list,array} × {global-lock,
// striped-lock, MCAS} DCAS policies, plus the Arora-Blumofe-Plaxton
// restricted baseline (whose external submissions take the mutex inbox —
// the re-injection asymmetry DESIGN.md §14 documents), plus the null
// hypothesis: a single shared mutex-FIFO queue (no stealing at all).
//
// Two workloads: ExecutorTree (fork/join drain — steal-path pressure) and
// ExecutorSubmitBurst (a submission-heavy request-replay mix: bursts of
// independent leaf tasks injected from an external thread, so the
// submit path itself is the contended resource — lock-free left-push on
// the general deques vs ABP's serialized mutex inbox, DESIGN.md §14.3).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "dcd/baseline/arora_deque.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/exec/executor.hpp"

namespace {

// Single shared-queue baseline: the classic one-lock thread pool. Every
// Worker's "deque" is a handle onto ONE process-wide mutex-protected
// FIFO, so owner pushes, owner pops, steal sweeps, and remote injections
// all serialize on the same lock. The DequeTraits specialization below
// maps the executor's verbs straight onto enqueue/dequeue, which turns
// Executor<SharedFifoQueue> into the bar DESIGN.md §14.3 measures the
// per-worker deques against. The queue is deliberately static: the bench
// runs one executor at a time and drains it (wait_all) before teardown,
// so the queue is always empty between runs.
class SharedFifoQueue {
 public:
  using value_type = dcd::exec::Task*;

  explicit SharedFifoQueue(std::size_t capacity) : cap_(capacity) {}

  dcd::deque::PushResult enqueue(dcd::exec::Task* t) {
    std::lock_guard<std::mutex> lock(mu_);
    if (q_.size() >= cap_) return dcd::deque::PushResult::kFull;
    q_.push_back(t);
    return dcd::deque::PushResult::kOkay;
  }

  std::optional<dcd::exec::Task*> dequeue() {
    std::lock_guard<std::mutex> lock(mu_);
    if (q_.empty()) return std::nullopt;
    dcd::exec::Task* t = q_.front();
    q_.pop_front();
    return t;
  }

 private:
  std::size_t cap_;
  inline static std::mutex mu_;
  inline static std::deque<dcd::exec::Task*> q_;
};

}  // namespace

namespace dcd::exec {

// Every verb is the same FIFO under the same lock. kRemoteInject keeps
// external submissions on the queue itself (there is no cheaper path to
// fall back to), and "steals" from any instance hit the shared queue, so
// the randomized victim sweep degenerates to re-polling the one queue.
template <>
struct DequeTraits<SharedFifoQueue> {
  static constexpr bool kRemoteInject = true;

  static deque::PushResult push_own(SharedFifoQueue& d, Task* t) {
    return d.enqueue(t);
  }
  static std::optional<Task*> pop_own(SharedFifoQueue& d) {
    return d.dequeue();
  }
  static std::optional<Task*> steal(SharedFifoQueue& d) {
    return d.dequeue();
  }
  static deque::PushResult inject(SharedFifoQueue& d, Task* t) {
    return d.enqueue(t);
  }
};

}  // namespace dcd::exec

namespace {

using dcd::bench::print_topology_once;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;
using dcd::exec::ExecConfig;
using dcd::exec::ExecStats;
using dcd::exec::Executor;
using dcd::exec::Task;
using dcd::exec::TaskContext;

constexpr std::uint64_t kDepth = 11;  // 2^12 - 1 = 4095 tasks per tree
constexpr std::uint64_t kTreeTasks = (1ull << (kDepth + 1)) - 1;

// Waits until the executor has run `expected` tasks since it started, for
// at most kDrainDeadline, then calls wait_all(), which returns at once on
// a drained graph and collects its effects. Returns false on expiry: a
// task was lost, and wait_all() would never return.
constexpr std::chrono::seconds kDrainDeadline{10};

template <typename Ex>
bool drained_by_deadline(Ex& ex, std::uint64_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + kDrainDeadline;
  while (ex.stats().executed < expected) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  ex.wait_all();
  return true;
}

// Fails the row and leaks the executor, whose workers still hold the
// graph that cannot drain.
template <typename Ex>
void fail_lost_task(benchmark::State& state, std::unique_ptr<Ex>& ex,
                    const char* what, std::uint64_t round,
                    std::uint64_t expected) {
  const std::string msg =
      std::string("lost a task: ") + std::to_string(ex->stats().executed) +
      " of " + std::to_string(expected) + " tasks ran within " +
      std::to_string(kDrainDeadline.count()) + " s (" + what + " " +
      std::to_string(round) + ", " + std::to_string(state.range(0)) +
      " workers)";
  state.SkipWithError(msg.c_str());
  (void)ex.release();
}

std::atomic<std::uint64_t> g_sum{0};

void tree_task(TaskContext& ctx, Task& t) {
  const std::uint64_t depth = t.args[0];
  const std::uint64_t weight = t.args[1];
  g_sum.fetch_add(depth * 0x9e3779b97f4a7c15ull + weight,
                  std::memory_order_relaxed);
  if (depth == 0) return;
  for (std::uint64_t k = 0; k < 2; ++k) {
    ctx.fork(ctx.create(&tree_task, nullptr, 0, depth - 1, weight * 2 + k));
  }
}

std::uint64_t tree_expected(std::uint64_t depth, std::uint64_t weight) {
  std::uint64_t sum = depth * 0x9e3779b97f4a7c15ull + weight;
  if (depth == 0) return sum;
  for (std::uint64_t k = 0; k < 2; ++k) {
    sum += tree_expected(depth - 1, weight * 2 + k);
  }
  return sum;
}

template <typename Deque>
void BM_ExecutorTree(benchmark::State& state) {
  print_topology_once();
  ExecConfig cfg;
  cfg.workers = static_cast<std::size_t>(state.range(0));
  cfg.latency_stride = 8;  // tasks are chunky; sample densely
  auto ex = std::make_unique<Executor<Deque>>(cfg);
  g_sum.store(0, std::memory_order_relaxed);
  std::uint64_t trees = 0;
  for (auto _ : state) {
    ex->submit(ex->create(&tree_task, nullptr, 0, kDepth, 1));
    if (!drained_by_deadline(*ex, (trees + 1) * kTreeTasks)) {
      fail_lost_task(state, ex, "tree", trees, (trees + 1) * kTreeTasks);
      break;
    }
    ++trees;
  }
  if (!ex) return;
  if (g_sum.load(std::memory_order_relaxed) !=
      trees * tree_expected(kDepth, 1)) {
    state.SkipWithError("schedule-independent checksum mismatch");
    return;
  }
  const ExecStats st = ex->stats();
  // Served-only: count what the workers actually executed.
  state.SetItemsProcessed(static_cast<std::int64_t>(st.executed));
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(st.steals), avg);
  state.counters["failed_steals"] =
      benchmark::Counter(static_cast<double>(st.failed_steals), avg);
  state.counters["parks"] =
      benchmark::Counter(static_cast<double>(st.parks), avg);
  state.counters["injected"] =
      benchmark::Counter(static_cast<double>(st.injected), avg);
  dcd::bench::report_latency(state, ex->latency());
}

// Submission-heavy mix: each iteration replays a burst of independent
// leaf requests from the (external, non-worker) bench thread and waits
// for the pool to drain it. There is no forking, so throughput is gated
// by the injection path: general deques take the lock-free left push,
// ABP serializes every submission through its mutex inbox, and the
// shared FIFO serializes everything. Accounting stays served-only.
constexpr std::uint64_t kBurst = 512;  // external submissions per iteration

void leaf_task(TaskContext&, Task& t) {
  g_sum.fetch_add(t.args[0] * 0x9e3779b97f4a7c15ull + t.args[1],
                  std::memory_order_relaxed);
}

std::uint64_t burst_expected(std::uint64_t bursts) {
  std::uint64_t sum = 0;
  for (std::uint64_t b = 0; b < bursts; ++b) {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      sum += i * 0x9e3779b97f4a7c15ull + b;
    }
  }
  return sum;
}

template <typename Deque>
void BM_ExecutorSubmitBurst(benchmark::State& state) {
  print_topology_once();
  ExecConfig cfg;
  cfg.workers = static_cast<std::size_t>(state.range(0));
  cfg.latency_stride = 8;
  auto ex = std::make_unique<Executor<Deque>>(cfg);
  g_sum.store(0, std::memory_order_relaxed);
  std::uint64_t bursts = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < kBurst; ++i) {
      ex->submit(ex->create(&leaf_task, nullptr, 0, i, bursts));
    }
    if (!drained_by_deadline(*ex, (bursts + 1) * kBurst)) {
      fail_lost_task(state, ex, "burst", bursts, (bursts + 1) * kBurst);
      break;
    }
    ++bursts;
  }
  if (!ex) return;
  if (g_sum.load(std::memory_order_relaxed) != burst_expected(bursts)) {
    state.SkipWithError("schedule-independent checksum mismatch");
    return;
  }
  const ExecStats st = ex->stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(st.executed));
  const auto avg = benchmark::Counter::kAvgIterations;
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(st.steals), avg);
  state.counters["failed_steals"] =
      benchmark::Counter(static_cast<double>(st.failed_steals), avg);
  state.counters["parks"] =
      benchmark::Counter(static_cast<double>(st.parks), avg);
  state.counters["injected"] =
      benchmark::Counter(static_cast<double>(st.injected), avg);
  dcd::bench::report_latency(state, ex->latency());
}

using ListGlobal = dcd::deque::ListDeque<Task*, GlobalLockDcas>;
using ListStriped = dcd::deque::ListDeque<Task*, StripedLockDcas>;
using ListMcas = dcd::deque::ListDeque<Task*, McasDcas>;
using ArrayGlobal = dcd::deque::ArrayDeque<Task*, GlobalLockDcas>;
using ArrayMcas = dcd::deque::ArrayDeque<Task*, McasDcas>;
using Abp = dcd::baseline::AroraDeque<Task*>;

// Worker-count sweep; the row name carries the count (".../4").
#define E12_SWEEP(benchfn)               \
  benchfn->Arg(2)                        \
      ->Arg(4)                           \
      ->Arg(8)                           \
      ->Unit(benchmark::kMillisecond)    \
      ->UseRealTime();

E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, ListGlobal)
              ->Name("E12_ExecutorTree/list_global_lock"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, ListStriped)
              ->Name("E12_ExecutorTree/list_striped_lock"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, ListMcas)
              ->Name("E12_ExecutorTree/list_mcas"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, ArrayGlobal)
              ->Name("E12_ExecutorTree/array_global_lock"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, ArrayMcas)
              ->Name("E12_ExecutorTree/array_mcas"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, Abp)
              ->Name("E12_ExecutorTree/baseline_abp"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorTree, SharedFifoQueue)
              ->Name("E12_ExecutorTree/baseline_shared_fifo"))

// Submission-heavy mix: one representative general deque per layout, the
// ABP inbox path, and the single-queue bar.
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorSubmitBurst, ListGlobal)
              ->Name("E12_ExecutorSubmitBurst/list_global_lock"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorSubmitBurst, ArrayGlobal)
              ->Name("E12_ExecutorSubmitBurst/array_global_lock"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorSubmitBurst, Abp)
              ->Name("E12_ExecutorSubmitBurst/baseline_abp"))
E12_SWEEP(BENCHMARK_TEMPLATE(BM_ExecutorSubmitBurst, SharedFifoQueue)
              ->Name("E12_ExecutorSubmitBurst/baseline_shared_fifo"))

#undef E12_SWEEP

}  // namespace
