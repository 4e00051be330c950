// Executor under ChaosDcas: park rules at the new exec sync points must
// leave the remaining workers draining the task graph (the §5.2
// adversarial-schedule discipline, applied to the idle path), and the
// fork/join result must be schedule-independent across DCAS policies
// under injected delays and forced failures.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/exec/executor.hpp"

namespace {

using namespace dcd;
using dcas::ChaosController;
using dcas::ChaosDcas;
using dcas::ChaosSchedule;
using exec::ExecConfig;
using exec::Executor;
using exec::Latch;
using exec::Task;
using exec::TaskContext;

ChaosSchedule quiet_schedule(std::uint64_t seed = 1) {
  ChaosSchedule s;
  s.seed = seed;
  return s;  // all fault probabilities zero: park rules only
}

// Schedule-independent checksum: every spawned node folds its (depth,
// weight) into a commutative sum, so ANY execution order must produce the
// same value (examples/work_stealing.cpp uses the same construction).
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

void run_tree(auto& ex, std::uint64_t depth) {
  g_sum.store(0, std::memory_order_relaxed);
  ex.submit(ex.create(&tree_task, nullptr, 0, depth, 1));
  ex.wait_all();
}

// A worker killed at the top of its victim sweep (exec.steal) models a
// thief dying mid-scan: the other workers must drain the tree without it.
TEST(ExecChaosPark, ThiefParkedAtSweepDoesNotBlockProgress) {
  ChaosController chaos(quiet_schedule(dcas::chaos_seed_from_env(2026)));
  const std::size_t rule = chaos.arm_park(dcas::sync_point::kExecSteal, 1);

  ExecConfig cfg;
  cfg.workers = 3;
  Executor<deque::ListDeque<Task*>> ex(cfg);
  ASSERT_TRUE(chaos.wait_parked(rule, 10000));

  run_tree(ex, 8);
  EXPECT_EQ(g_sum.load(std::memory_order_relaxed), tree_expected(8, 1));
  EXPECT_TRUE(chaos.parked(rule));  // it really stayed out of the party
  chaos.release_all();
}

// A worker parked on the eventcount threshold (exec.park) is the normal
// idle state; chaos pinning it there while traffic flows proves a sleeper
// is never required for progress.
TEST(ExecChaosPark, SleeperParkedAtEventcountDoesNotBlockProgress) {
  ChaosController chaos(quiet_schedule(dcas::chaos_seed_from_env(2026)));
  const std::size_t rule = chaos.arm_park(dcas::sync_point::kExecPark, 1);

  ExecConfig cfg;
  cfg.workers = 3;
  cfg.spin_before_park = std::chrono::microseconds{0};
  Executor<deque::ListDeque<Task*>> ex(cfg);
  ASSERT_TRUE(chaos.wait_parked(rule, 10000));

  run_tree(ex, 8);
  EXPECT_EQ(g_sum.load(std::memory_order_relaxed), tree_expected(8, 1));
  chaos.release_all();
}

// An external submitter parked mid-injection (exec.inject fires before the
// task is pushed) must not wedge anyone else: the workers stay responsive
// to other submitters, and the parked submission lands after release.
TEST(ExecChaosPark, SubmitterParkedMidInjectDoesNotBlockWorkers) {
  ChaosController chaos(quiet_schedule(dcas::chaos_seed_from_env(2026)));
  const std::size_t rule = chaos.arm_park(dcas::sync_point::kExecInject, 1);

  ExecConfig cfg;
  cfg.workers = 2;
  Executor<deque::ListDeque<Task*>> ex(cfg);
  g_sum.store(0, std::memory_order_relaxed);

  std::thread victim([&ex] {
    ex.submit(ex.create(&tree_task, nullptr, 0, 3, 1));  // parks in here
  });
  ASSERT_TRUE(chaos.wait_parked(rule, 10000));

  // The second submitter's inject (hit #2, rule is nth=1) sails through.
  std::atomic<bool> second_done{false};
  std::thread other([&ex, &second_done] {
    ex.submit(ex.create(&tree_task, nullptr, 0, 3, 100));
    second_done.store(true, std::memory_order_release);
  });
  other.join();
  EXPECT_TRUE(second_done.load(std::memory_order_acquire));

  chaos.release(rule);
  victim.join();
  ex.wait_all();
  EXPECT_EQ(g_sum.load(std::memory_order_relaxed),
            tree_expected(3, 1) + tree_expected(3, 100));
}

// An external waiter is woken by the dry sweep that follows the last
// task, so a worker trapped at the top of its sweep (exec.steal) mid-graph
// never wakes it. The remaining workers must finish the graph and release
// the waiter, with the exact checksum, while the trapped worker is held.
// The trapped worker's own deque was empty when it fired (exec.steal
// fires only after pop_own failed), so no task is stranded with it. No
// worker parks on the eventcount (10 s window): a submit wakes one
// sleeper, and trapping that one would strand the root with the rest
// asleep, which is the eventcount's single wake, not the drain's.
TEST(ExecChaosPark, WaiterReleasedWhileWorkerParkedAtSteal) {
  ChaosController chaos(quiet_schedule(dcas::chaos_seed_from_env(2026)));
  ExecConfig cfg;
  cfg.workers = 3;
  cfg.spin_before_park = std::chrono::seconds{10};
  Executor<deque::ListDeque<Task*>> ex(cfg);
  g_sum.store(0, std::memory_order_relaxed);

  ex.submit(ex.create(&tree_task, nullptr, 0, 14, 1));
  std::atomic<bool> waited{false};
  std::thread waiter([&] {
    ex.wait_all();
    waited.store(true, std::memory_order_release);
  });
  const std::size_t rule = chaos.arm_park(dcas::sync_point::kExecSteal, 1);
  EXPECT_TRUE(chaos.wait_parked(rule, 10000));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!waited.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(waited.load(std::memory_order_acquire))
      << "wait_all() needed the trapped worker";
  EXPECT_TRUE(chaos.parked(rule));
  chaos.release_all();
  waiter.join();
  EXPECT_EQ(g_sum.load(std::memory_order_relaxed), tree_expected(14, 1));
}

// --- determinism across DCAS policies under chaos seeds -------------------
//
// Acceptance criterion: the fork-join result is validated deterministic
// across >= 3 DCAS policies with injected delays and spurious DCAS
// failures. The checksum is schedule-independent by construction, so any
// divergence means a task was lost, duplicated, or torn by the
// deque/executor handoff under that policy.
template <typename P>
class ExecChaosPolicyTest : public ::testing::Test {
 protected:
  using Deque = deque::ListDeque<Task*, ChaosDcas<P>>;
};

using Inners = ::testing::Types<dcas::GlobalLockDcas, dcas::StripedLockDcas,
                                dcas::McasDcas>;
TYPED_TEST_SUITE(ExecChaosPolicyTest, Inners);

TYPED_TEST(ExecChaosPolicyTest, ForkJoinChecksumDeterministicUnderFaults) {
  ChaosSchedule s =
      ChaosSchedule::from_seed(dcas::chaos_seed_from_env(2026));
  // Make the windows real: delays on ~1/8 of calls, forced failure on
  // ~1/16 of boolean DCASes.
  s.delay_per_mille = 125;
  s.max_delay_spins = 64;
  s.dcas_fail_per_mille = 60;
  ChaosController chaos(s);
  SCOPED_TRACE(chaos.schedule().describe());

  ExecConfig cfg;
  cfg.workers = 4;
  cfg.spin_before_park = std::chrono::microseconds{0};
  Executor<typename TestFixture::Deque> ex(cfg);
  for (int round = 0; round < 3; ++round) {
    run_tree(ex, 9);
    EXPECT_EQ(g_sum.load(std::memory_order_relaxed), tree_expected(9, 1))
        << "policy diverged on round " << round;
  }
  const exec::ExecStats st = ex.stats();
  EXPECT_EQ(st.executed, 3u * ((1u << 10) - 1));
}

}  // namespace
