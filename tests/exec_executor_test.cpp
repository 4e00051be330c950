// Fork/join work-stealing executor (exec/executor.hpp): correctness of
// the task API over every deque family, the external submission paths
// (lock-free injection vs the ABP inbox), and the idle-path accounting —
// the dry-sweep/park cycle must leave the AdaptiveBackoff exact counters
// consistent (the PR 6 yields() contract, extended to the scan loop).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dcd/baseline/arora_deque.hpp"
#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/exec/executor.hpp"
#include "dcd/util/backoff.hpp"

namespace {

using namespace dcd;
using exec::ExecConfig;
using exec::Executor;
using exec::Latch;
using exec::Task;
using exec::TaskContext;

// --- fib via continuation counting ----------------------------------------
//
// Each node either resolves directly (n < 2) or hands its own continuation
// to a freshly created sum node and forks two children that write into the
// sum node's args. The second child's pending-decrement (acq_rel) is what
// publishes both partial results to the sum body.

void fib_sum(TaskContext&, Task& t) {
  auto* out = reinterpret_cast<std::uint64_t*>(t.args[0]);
  *out = t.args[1] + t.args[2];
}

void fib_task(TaskContext& ctx, Task& t) {
  const std::uint64_t n = t.args[0];
  auto* out = reinterpret_cast<std::uint64_t*>(t.args[1]);
  if (n < 2) {
    *out = n;
    return;
  }
  Task* sum = ctx.create(&fib_sum, t.continuation, 2, t.args[1]);
  t.continuation = nullptr;  // the subtree's completion now rides on `sum`
  ctx.fork(ctx.create(&fib_task, sum, 0, n - 1,
                      reinterpret_cast<std::uint64_t>(&sum->args[1])));
  ctx.fork(ctx.create(&fib_task, sum, 0, n - 2,
                      reinterpret_cast<std::uint64_t>(&sum->args[2])));
}

constexpr std::uint64_t fib_expected(std::uint64_t n) {
  std::uint64_t a = 0, b = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

// --- schedule-independent checksum tree (examples/work_stealing.cpp) ------

std::atomic<std::uint64_t> g_checksum{0};

void tree_task(TaskContext& ctx, Task& t) {
  const std::uint64_t depth = t.args[0];
  const std::uint64_t weight = t.args[1];
  g_checksum.fetch_add(depth * 0x9e3779b97f4a7c15ull + weight,
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

template <typename D>
class ExecutorDequeTest : public ::testing::Test {};

using Deques = ::testing::Types<deque::ListDeque<Task*>,
                                deque::ArrayDeque<Task*>,
                                baseline::AroraDeque<Task*>>;
TYPED_TEST_SUITE(ExecutorDequeTest, Deques);

TYPED_TEST(ExecutorDequeTest, FibForkJoinExternalSubmit) {
  ExecConfig cfg;
  cfg.workers = 4;
  Executor<TypeParam> ex(cfg);
  std::uint64_t result = 0;
  Latch latch(1);
  Task* root = ex.create(&fib_task, latch.task(), 0, 16,
                         reinterpret_cast<std::uint64_t>(&result));
  ex.submit(root);
  ex.join(latch);
  EXPECT_EQ(result, fib_expected(16));
  ex.wait_all();
  const exec::ExecStats s = ex.stats();
  EXPECT_GE(s.executed, 2u);  // the tree really ran through the deques
  EXPECT_EQ(s.injected, 1u);  // one external submission (the root)
}

// Repeated external wait_all() rounds over fire-and-forget fork trees:
// each round's checksum is exact the moment wait_all() returns, so the
// per-worker double collect never reports a drained graph early.
TYPED_TEST(ExecutorDequeTest, WaitAllDrainsFireAndForgetTree) {
  ExecConfig cfg;
  cfg.workers = 3;
  Executor<TypeParam> ex(cfg);
  std::uint64_t want = 0;
  g_checksum.store(0, std::memory_order_relaxed);
  for (std::uint64_t round = 0; round < 20; ++round) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      ex.submit(ex.create(&tree_task, nullptr, 0, 5, round * 3 + k));
      want += tree_expected(5, round * 3 + k);
    }
    ex.wait_all();
    ASSERT_EQ(g_checksum.load(std::memory_order_relaxed), want)
        << "round " << round;
  }
  EXPECT_EQ(ex.stats().executed, 20u * 3u * 63u);
}

TYPED_TEST(ExecutorDequeTest, ManyExternalSubmitters) {
  g_checksum.store(0, std::memory_order_relaxed);
  ExecConfig cfg;
  cfg.workers = 2;
  Executor<TypeParam> ex(cfg);
  constexpr int kSubmitters = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> producers;
  for (int p = 0; p < kSubmitters; ++p) {
    producers.emplace_back([&ex, p] {
      for (int i = 0; i < kPerThread; ++i) {
        ex.submit(ex.create(&tree_task, nullptr, 0, 3,
                            static_cast<std::uint64_t>(p * kPerThread + i)));
      }
    });
  }
  for (auto& t : producers) t.join();
  ex.wait_all();
  std::uint64_t want = 0;
  for (int i = 0; i < kSubmitters * kPerThread; ++i) {
    want += tree_expected(3, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(g_checksum.load(std::memory_order_relaxed), want);
  EXPECT_EQ(ex.stats().injected,
            static_cast<std::uint64_t>(kSubmitters * kPerThread));
}

TEST(ExecutorBasics, SingleWorkerRunsEverythingInOrderOfDependence) {
  Executor<deque::ListDeque<Task*>> ex(ExecConfig{.workers = 1});
  std::uint64_t result = 0;
  Latch latch(1);
  ex.submit(ex.create(&fib_task, latch.task(), 0, 12,
                      reinterpret_cast<std::uint64_t>(&result)));
  ex.join(latch);  // external join: blocks on the completion condvar
  EXPECT_EQ(result, fib_expected(12));
}

TEST(ExecutorBasics, LatchCountsMultipleRoots) {
  Executor<deque::ArrayDeque<Task*>> ex(ExecConfig{.workers = 2});
  std::uint64_t r1 = 0, r2 = 0, r3 = 0;
  Latch latch(3);
  ex.submit(ex.create(&fib_task, latch.task(), 0, 10,
                      reinterpret_cast<std::uint64_t>(&r1)));
  ex.submit(ex.create(&fib_task, latch.task(), 0, 11,
                      reinterpret_cast<std::uint64_t>(&r2)));
  ex.submit(ex.create(&fib_task, latch.task(), 0, 12,
                      reinterpret_cast<std::uint64_t>(&r3)));
  ex.join(latch);
  EXPECT_EQ(r1, fib_expected(10));
  EXPECT_EQ(r2, fib_expected(11));
  EXPECT_EQ(r3, fib_expected(12));
}

TEST(ExecutorBasics, StatsCountStealsOnMultiWorkerTree) {
  g_checksum.store(0, std::memory_order_relaxed);
  ExecConfig cfg;
  cfg.workers = 4;
  Executor<deque::ListDeque<Task*>> ex(cfg);
  ex.submit(ex.create(&tree_task, nullptr, 0, 10, 1));
  ex.wait_all();
  EXPECT_EQ(g_checksum.load(std::memory_order_relaxed),
            tree_expected(10, 1));
  const exec::ExecStats s = ex.stats();
  // 2^11 - 1 nodes, all executed exactly once.
  EXPECT_EQ(s.executed, (1u << 11) - 1);
  // All work entered through one worker; with three more sweeping, at
  // least one task must have crossed deques (not guaranteed per-steal
  // counts, but zero would mean the sweep never worked at all).
  EXPECT_GE(s.steals + s.failed_steals, 1u);
}

TEST(ExecutorBasics, LatencySamplingRecordsWhenEnabled) {
  ExecConfig cfg;
  cfg.workers = 2;
  cfg.latency_stride = 1;  // sample every acquisition
  Executor<deque::ListDeque<Task*>> ex(cfg);
  ex.submit(ex.create(&tree_task, nullptr, 0, 8, 1));
  ex.wait_all();
  // Quiescent now (wait_all returned, workers only sweep dry).
  EXPECT_GE(ex.latency().total(), ex.stats().executed / 2);
}

// --- on-worker wait_all() and Latch lifetime --------------------------------

using ListExec = Executor<deque::ListDeque<Task*>>;

void forks_then_waits_all(TaskContext& ctx, Task& t) {
  auto* ex = reinterpret_cast<ListExec*>(t.args[0]);
  auto* snapshot = reinterpret_cast<std::uint64_t*>(t.args[1]);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ctx.fork(ctx.create(&tree_task, nullptr, 0, 3, i));
  }
  // wait_all() on a worker must help-drain: the caller's own task is in
  // flight, so blocking on the condvar here can never be satisfied (and
  // with one worker nobody else runs the children).
  ex->wait_all();
  *snapshot = g_checksum.load(std::memory_order_relaxed);
}

// One worker, where only the waiter itself can run the children, and four,
// where the others steal them and wait_all() must still see every one.
TEST(ExecutorBasics, WaitAllFromWorkerTaskHelpsInsteadOfDeadlocking) {
  for (const std::size_t workers : {1u, 4u}) {
    g_checksum.store(0, std::memory_order_relaxed);
    ListExec ex(ExecConfig{.workers = workers});
    std::uint64_t snapshot = 0;
    Latch latch(1);
    ex.submit(ex.create(&forks_then_waits_all, latch.task(), 0,
                        reinterpret_cast<std::uint64_t>(&ex),
                        reinterpret_cast<std::uint64_t>(&snapshot)));
    ex.join(latch);
    std::uint64_t want = 0;
    for (std::uint64_t i = 0; i < 8; ++i) want += tree_expected(3, i);
    // Every forked child completed before wait_all() returned.
    EXPECT_EQ(snapshot, want) << workers << " workers";
  }
}

void inner_join_rounds(TaskContext& ctx, Task& t) {
  auto* ex = reinterpret_cast<ListExec*>(t.args[0]);
  for (int round = 0; round < 128; ++round) {
    // Stack-allocated latch, destroyed the instant done() is observed.
    // The completing worker's decrement-to-zero must not touch the Task
    // afterwards (complete() reads fn before the fetch_sub) — TSan flags
    // the old read-after-release here.
    Latch latch(4);
    for (std::uint64_t i = 0; i < 4; ++i) {
      ctx.fork(ctx.create(&tree_task, latch.task(), 0, 1, i));
    }
    ex->join(latch);  // worker help loop polls latch.done()
  }
}

TEST(ExecutorBasics, WorkerJoinOnStackLatchSurvivesManyRounds) {
  g_checksum.store(0, std::memory_order_relaxed);
  ListExec ex(ExecConfig{.workers = 4});
  Latch outer(1);
  ex.submit(ex.create(&inner_join_rounds, outer.task(), 0,
                      reinterpret_cast<std::uint64_t>(&ex)));
  ex.join(outer);
  ex.wait_all();  // grandchildren are fire-and-forget; drain them too
  std::uint64_t want = 0;
  for (std::uint64_t i = 0; i < 4; ++i) want += tree_expected(1, i);
  EXPECT_EQ(g_checksum.load(std::memory_order_relaxed), 128 * want);
}

// --- drain detection and in-place continuations ----------------------------

// Leaves of a fire-and-forget tree stamp the time their body ends.
std::atomic<std::int64_t> g_last_body_ns{0};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void stamped_tree_task(TaskContext& ctx, Task& t) {
  const std::uint64_t depth = t.args[0];
  if (depth > 0) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      ctx.fork(ctx.create(&stamped_tree_task, nullptr, 0, depth - 1));
    }
  }
  std::int64_t seen = g_last_body_ns.load(std::memory_order_relaxed);
  const std::int64_t t_end = now_ns();
  while (seen < t_end && !g_last_body_ns.compare_exchange_weak(
                             seen, t_end, std::memory_order_relaxed)) {
  }
}

// Workers that never park (10 s window) never pass through the eventcount,
// and completion itself notifies nobody: the external waiter is released
// by the dry sweep that follows the last task, within microseconds.
TEST(ExecutorDrain, ExternalWaitAllReleasedByDrySweep) {
  ExecConfig cfg;
  cfg.workers = 2;
  cfg.spin_before_park = std::chrono::seconds{10};
  ListExec ex(cfg);
  for (int round = 0; round < 5; ++round) {
    ex.submit(ex.create(&stamped_tree_task, nullptr, 0, 10));
    ex.wait_all();
    const std::int64_t late =
        now_ns() - g_last_body_ns.load(std::memory_order_relaxed);
    EXPECT_LT(late, 100'000'000) << "round " << round;
  }
  EXPECT_EQ(ex.stats().parks, 0u);
}

// Chain link k makes link k + 1 ready. Each body records its worker and
// the address of one of its locals.
struct ChainLog {
  std::uint64_t next = 0;
  std::size_t worker = 0;
  bool same_worker = true;
  std::uintptr_t frame_lo = UINTPTR_MAX;
  std::uintptr_t frame_hi = 0;
};

void chain_link(TaskContext& ctx, Task& t) {
  auto* log = reinterpret_cast<ChainLog*>(t.args[0]);
  const std::uint64_t k = t.args[1];
  const auto frame = reinterpret_cast<std::uintptr_t>(&k);
  if (log->next == 0) log->worker = ctx.worker_id();
  log->same_worker = log->same_worker && ctx.worker_id() == log->worker;
  EXPECT_EQ(k, log->next);
  ++log->next;
  log->frame_lo = std::min(log->frame_lo, frame);
  log->frame_hi = std::max(log->frame_hi, frame);
}

// A ready continuation runs in place, on the worker that made it ready, in
// run()'s loop: 10^5 links leave the stack where the first one was, every
// link runs on that worker, and executed counts each link once.
TEST(ExecutorDrain, ContinuationChainRunsInPlaceWithoutGrowingTheStack) {
  constexpr std::uint64_t kLinks = 100'000;
  ListExec ex(ExecConfig{.workers = 2});
  ChainLog log;
  const auto log_arg = reinterpret_cast<std::uint64_t>(&log);
  Task* next = nullptr;
  for (std::uint64_t k = kLinks; k-- > 0;) {
    next = ex.create(&chain_link, next, k == 0 ? 0 : 1, log_arg, k);
  }
  ex.submit(next);
  ex.wait_all();
  EXPECT_EQ(log.next, kLinks);
  EXPECT_TRUE(log.same_worker);
  EXPECT_LT(log.frame_hi - log.frame_lo, 4096u);
  EXPECT_EQ(ex.stats().executed, kLinks);
}

// --- the next slot: a task's last forked child skips the deque -------------

// Forks a fib(n) job makes: two per node with n >= 2.
constexpr std::uint64_t fib_forks(std::uint64_t n) {
  return n < 2 ? 0 : 2 + fib_forks(n - 1) + fib_forks(n - 2);
}

// A ListDeque that counts the executor's owner-end pushes and the ones that
// came back full (DequeTraits' primary template drives push_right).
struct CountingListDeque : deque::ListDeque<Task*> {
  using deque::ListDeque<Task*>::ListDeque;

  deque::PushResult push_right(Task* t) {
    pushes.fetch_add(1, std::memory_order_relaxed);
    const deque::PushResult r = deque::ListDeque<Task*>::push_right(t);
    if (r != deque::PushResult::kOkay) {
      full.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
  }

  static inline std::atomic<std::uint64_t> pushes{0};
  static inline std::atomic<std::uint64_t> full{0};
};

using CountingExec = Executor<CountingListDeque>;

// Each fib node forks two children: the first waits in the next slot and
// the second displaces it onto the deque, so a job pushes once per two
// forks (a deque round trip per fork would push on every one). The root
// comes in through the thief end, which is not counted.
TEST(ExecutorSlot, LastForkedChildSkipsTheDeque) {
  CountingExec ex(ExecConfig{.workers = 1});
  for (const std::uint64_t n : {2u, 10u, 16u}) {
    const std::uint64_t before = CountingListDeque::pushes.load();
    std::uint64_t result = 0;
    Latch latch(1);
    ex.submit(ex.create(&fib_task, latch.task(), 0, n,
                        reinterpret_cast<std::uint64_t>(&result)));
    ex.join(latch);
    EXPECT_EQ(result, fib_expected(n));
    EXPECT_EQ(CountingListDeque::pushes.load() - before, fib_forks(n) / 2)
        << "fib(" << n << ")";
  }
}

void forks_one_then_joins(TaskContext& ctx, Task& t) {
  auto* ex = reinterpret_cast<ListExec*>(t.args[0]);
  Latch latch(1);
  ctx.fork(ctx.create(&tree_task, latch.task(), 0, 0, t.args[1]));
  ex->join(latch);
}

// At one worker the child a body forks last sits in the slot, where only
// the body's own join() can reach it: the deque is empty, so nothing else
// the worker runs would take the slot first. A deadline turns a join()
// that misses the slot into a failure rather than a hang.
TEST(ExecutorSlot, JoinRunsTheSlotTask) {
  g_checksum.store(0, std::memory_order_relaxed);
  auto ex = std::make_unique<ListExec>(ExecConfig{.workers = 1});
  auto done = std::make_unique<Latch>(1);
  ex->submit(ex->create(&forks_one_then_joins, done->task(), 0,
                        reinterpret_cast<std::uint64_t>(ex.get()), 7));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{10};
  while (!done->done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  if (!done->done()) {
    ADD_FAILURE() << "join() inside a task never ran its forked child";
    // The worker spins in join() for good: destroying the executor would
    // wait on it, so leak both it and the latch its task points at.
    (void)ex.release();
    (void)done.release();
    return;
  }
  ex->wait_all();
  EXPECT_EQ(g_checksum.load(std::memory_order_relaxed), tree_expected(0, 7));
  EXPECT_EQ(ex->stats().executed, 2u);
}

// A two-node deque turns most displaced children into full pushes, which
// run inline; the slot task forked just before must still run exactly
// once.
TEST(ExecutorSlot, FullDequeRunsDisplacedChildInline) {
  g_checksum.store(0, std::memory_order_relaxed);
  const std::uint64_t full_before = CountingListDeque::full.load();
  ExecConfig cfg;
  cfg.workers = 2;
  cfg.deque_capacity = 2;
  CountingExec ex(cfg);
  ex.submit(ex.create(&tree_task, nullptr, 0, 10, 1));
  ex.wait_all();
  EXPECT_EQ(g_checksum.load(std::memory_order_relaxed), tree_expected(10, 1));
  EXPECT_EQ(ex.stats().executed, (1u << 11) - 1);
  EXPECT_GT(CountingListDeque::full.load() - full_before, 0u)
      << "no push came back full; the inline path did not run";
}

// Displaced children stay on the deque, so idle workers still steal from a
// fib tree.
TEST(ExecutorSlot, DisplacedChildrenStayStealable) {
  ListExec ex(ExecConfig{.workers = 4});
  std::uint64_t result = 0;
  Latch latch(1);
  ex.submit(ex.create(&fib_task, latch.task(), 0, 22,
                      reinterpret_cast<std::uint64_t>(&result)));
  ex.join(latch);
  EXPECT_EQ(result, fib_expected(22));
  ex.wait_all();
  EXPECT_GT(ex.stats().steals, 0u);
}

// --- idle-path backoff accounting (satellite: PR 6 yields() contract) -----

// Dry sweeps a fresh AdaptiveBackoff spins through before it yields: the
// doubling budget stays within kDefaultSpinLimit for floor(log2(limit)) + 1
// failures.
std::uint32_t spin_steps_before_yield() {
  std::uint32_t steps = 0;
  for (std::uint64_t budget = 1;
       budget <= util::AdaptiveBackoff::kDefaultSpinLimit; budget *= 2) {
    ++steps;
  }
  return steps;
}

// Chaos-parks the single worker at exec.park: wait_parked() gives a
// happens-before edge to the worker's last counter writes, so the asserts
// below are exact, not racy samples. From a fresh AdaptiveBackoff the
// whole first dry phase is deterministic: with a zero window the worker
// parks on the first dry sweep after which its backoff yields, which is
// floor(log2(spin_limit)) + 1 sweeps, exactly one on_failure() each.
TEST(ExecutorBackoffAccounting, DrySweepParkCycleKeepsExactCounters) {
  ExecConfig cfg;
  cfg.workers = 1;
  cfg.spin_before_park = std::chrono::microseconds{0};

  dcas::ChaosController chaos(dcas::ChaosSchedule::from_seed(
      dcas::chaos_seed_from_env(2026)));
  const std::size_t rule = chaos.arm_park(dcas::sync_point::kExecPark, 1);

  Executor<deque::ListDeque<Task*>> ex(cfg);
  ASSERT_TRUE(chaos.wait_parked(rule, 10000));

  const std::uint32_t spin_steps = spin_steps_before_yield();
  const exec::ExecStats parked = ex.stats();
  EXPECT_EQ(parked.executed, 0u);
  EXPECT_EQ(parked.parks, 1u);
  // The worker parks only in the yield regime: not one sweep earlier,
  // and (zero window) not one later.
  EXPECT_EQ(parked.dry_sweeps, spin_steps);
  // Exactly one backoff failure per dry sweep — the scan-loop extension
  // of the exact-count contract.
  EXPECT_EQ(parked.scan_pauses, parked.dry_sweeps);
  // It parks before its first yielding sweep; ExecutorIdle.
  // ParksAfterSpinWindow pins the yield count of a longer idle spell.
  EXPECT_EQ(parked.scan_yields, 0u);

  // Unpark and prove the worker comes back: one task must execute and the
  // pause/dry-sweep invariant must hold at quiescence.
  chaos.release(rule);
  std::uint64_t result = 0;
  Latch latch(1);
  ex.submit(ex.create(&fib_task, latch.task(), 0, 8,
                      reinterpret_cast<std::uint64_t>(&result)));
  ex.join(latch);
  EXPECT_EQ(result, fib_expected(8));
  const exec::ExecStats after = ex.stats();
  EXPECT_GE(after.executed, 1u);
  EXPECT_GE(after.scan_pauses, parked.scan_pauses);
  // The mirrors are written together with the dry-sweep bump; any
  // in-flight window is at most one sweep wide.
  EXPECT_LE(after.dry_sweeps - after.scan_pauses, 1u);
}

// --- idle path: park on a time budget -------------------------------------

// With a short window every worker still parks once its idle spell
// outlasts it, and none before the window has passed on its own idle
// clock. The rules are all nth = 1: a worker trapped by one rule never
// reaches the next rule's hit count, so each rule traps a different
// worker.
TEST(ExecutorIdle, ParksAfterSpinWindow) {
  constexpr std::size_t kWorkers = 3;
  ExecConfig cfg;
  cfg.workers = kWorkers;
  cfg.spin_before_park = std::chrono::milliseconds{20};

  dcas::ChaosController chaos(dcas::ChaosSchedule::from_seed(
      dcas::chaos_seed_from_env(2026)));
  std::vector<std::size_t> rules;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    rules.push_back(chaos.arm_park(dcas::sync_point::kExecPark, 1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  Executor<deque::ListDeque<Task*>> ex(cfg);
  // EXPECT, not ASSERT: an early return would destroy the executor while
  // trapped workers wait for release_all().
  for (std::size_t r : rules) EXPECT_TRUE(chaos.wait_parked(r, 10000));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, cfg.spin_before_park);
  // No task has run, so every sweep of every worker is one backoff
  // failure: the first spin_steps of each spin, the rest yield, and the
  // window is long enough that the yields mirror must be nonzero.
  const exec::ExecStats s = ex.stats();
  EXPECT_EQ(s.parks, kWorkers);
  EXPECT_EQ(s.executed, 0u);
  EXPECT_EQ(s.scan_pauses, s.dry_sweeps);
  EXPECT_EQ(s.scan_yields,
            s.scan_pauses - kWorkers * spin_steps_before_yield());
  EXPECT_GT(s.scan_yields, 0u);

  // Parked workers still wake for new work.
  chaos.release_all();
  std::uint64_t result = 0;
  Latch latch(1);
  ex.submit(ex.create(&fib_task, latch.task(), 0, 10,
                      reinterpret_cast<std::uint64_t>(&result)));
  ex.join(latch);
  EXPECT_EQ(result, fib_expected(10));
}

// Within the window an idle worker keeps sweeping: requests trickling in
// 1 ms apart are all picked up without a single park (and so without a
// futex wake on the submit path).
TEST(ExecutorIdle, NoParkWithinWindow) {
  constexpr int kRequests = 100;
  ExecConfig cfg;
  cfg.workers = 2;
  cfg.spin_before_park = std::chrono::seconds{10};
  Executor<deque::ListDeque<Task*>> ex(cfg);
  std::vector<std::uint64_t> results(kRequests, 0);
  Latch latch(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ex.submit(ex.create(&fib_task, latch.task(), 0, 6,
                        reinterpret_cast<std::uint64_t>(&results[i])));
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ex.join(latch);
  for (std::uint64_t r : results) EXPECT_EQ(r, fib_expected(6));
  ex.wait_all();
  const exec::ExecStats s = ex.stats();
  EXPECT_EQ(s.parks, 0u);
  EXPECT_EQ(s.injected, static_cast<std::uint64_t>(kRequests));
}

}  // namespace
