// Acceptance tests for the DPOR explorer: the array deque at capacities
// 1–4 under all four ArrayOptions, the list deque under 2–3 threads, a
// scenario that provably visits the Figure 16 two-null-splice state, and
// the same race on the dummy-node variant.
//
// Labelled `mc` in CMake: the CI model-checking job runs exactly these.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dcd/dcas/chaos.hpp"
#include "dcd/mc/explorer.hpp"
#include "dcd/mc/scenario.hpp"

namespace dcd::mc {

// Test-name suffix for the parameterized tests below (gtest finds it by
// ADL); the default would dump the Scenario's bytes, pointers included.
void PrintTo(const Scenario& sc, std::ostream* os) {
  *os << sc.name << " on " << deque_kind_name(sc.deque);
}

}  // namespace dcd::mc

namespace {

using namespace dcd;
using verify::OpType::kPopLeft;
using verify::OpType::kPopRight;
using verify::OpType::kPushLeft;
using verify::OpType::kPushRight;

mc::Scenario builtin(const std::string& name) {
  mc::Scenario sc;
  EXPECT_TRUE(mc::find_builtin(name, sc)) << name;
  return sc;
}

void expect_clean_exhaustive(const mc::ExploreResult& res) {
  EXPECT_TRUE(res.ok) << res.message;
  EXPECT_TRUE(res.complete) << res.message;
  EXPECT_EQ(res.violation.kind, mc::ViolationKind::kNone);
  EXPECT_GT(res.stats.executions, 0u);
  EXPECT_GT(res.stats.transitions, 0u);
}

// --- the acceptance suite --------------------------------------------------

TEST(McExplorer, ArrayN2MixedExhaustiveClean) {
  expect_clean_exhaustive(mc::explore(builtin("array-n2-mixed")));
}

TEST(McExplorer, ArrayN3MixedExhaustiveClean) {
  expect_clean_exhaustive(mc::explore(builtin("array-n3-mixed")));
}

TEST(McExplorer, ArrayBoundaryRaceExhaustiveClean) {
  // L == R ambiguous-boundary traffic: every execution crosses the
  // (L+1) mod N == R state and must disambiguate by cell contents.
  const mc::ExploreResult res = mc::explore(builtin("array-n2-boundary-race"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.shape_steps[static_cast<std::size_t>(
                dcas::DcasShape::kEmptyConfirm)],
            0u);
}

TEST(McExplorer, ListMixedExhaustiveClean) {
  const mc::ExploreResult res = mc::explore(builtin("list-mixed"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.shape_steps[static_cast<std::size_t>(
                dcas::DcasShape::kLogicalDelete)],
            0u);
}

TEST(McExplorer, ListSingleItemPopRaceExhaustiveClean) {
  expect_clean_exhaustive(mc::explore(builtin("list-single-item-pop-race")));
}

TEST(McExplorer, ListExecStealVsOwnPopExhaustiveClean) {
  // Work-stealing executor shape (src/exec): owner pops/forks on the right
  // while a thief pops the left. Every interleaving must hand off each
  // task exactly once — a lost or duplicated middle element would show up
  // as a linearizability violation here before it ever corrupts a
  // fork/join checksum under chaos.
  const mc::ExploreResult res =
      mc::explore(builtin("list-exec-steal-vs-own-pop"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.shape_steps[static_cast<std::size_t>(
                dcas::DcasShape::kLogicalDelete)],
            0u);
}

TEST(McExplorer, ListExecStaleTwoNullExhaustiveClean) {
  // The lost-task schedule (DESIGN.md §2): a thief's two-null splice over
  // a stale neighbour read. With the adjacency check every interleaving is
  // linearizable; the two-null branch is really taken, and the scenario
  // really reaches the two-deleted state it guards.
  const mc::ExploreResult res =
      mc::explore(builtin("list-exec-stale-two-null"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.two_deleted_states, 0u);
  EXPECT_GT(res.stats.shape_steps[static_cast<std::size_t>(
                dcas::DcasShape::kTwoNullSplice)],
            0u);
}

TEST(McExplorer, ListDummyExecStaleTwoNullExhaustiveClean) {
  const mc::ExploreResult res =
      mc::explore(builtin("list-dummy-exec-stale-two-null"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.two_deleted_states, 0u);
}

TEST(McExplorer, Figure16ScenarioVisitsTwoNullSplice) {
  // The engineered Figure 16 scenario must *provably* reach the paper's
  // two-logically-deleted-nodes state and resolve it with a successful
  // two-null double-splice DCAS — the stats prove the visit happened.
  const mc::ExploreResult res = mc::explore(mc::figure16_scenario());
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.two_deleted_states, 0u)
      << "never reached the two-logically-deleted state";
  EXPECT_GT(res.stats.shape_steps[static_cast<std::size_t>(
                dcas::DcasShape::kTwoNullSplice)],
            0u)
      << "no successful two-null double splice";
  EXPECT_GT(res.stats.shape_executions[static_cast<std::size_t>(
                dcas::DcasShape::kTwoNullSplice)],
            0u);
}

TEST(McExplorer, ListElimSameEndExhaustiveClean) {
  // Elimination layer (DESIGN.md §13): same-end push/pop traffic under two
  // contending pushers. Exhaustive exploration must (a) stay linearizable
  // across every interleaving — including the eliminated pairs that
  // transfer a value without touching the list — and (b) provably drive
  // every protocol transition: offer, the take that linearizes both ops,
  // the cancel of an unclaimed offer, and the pusher's clear handshake.
  const mc::ExploreResult res = mc::explore(builtin("list-elim-same-end"));
  expect_clean_exhaustive(res);
  const auto steps = [&](dcas::DcasShape s) {
    return res.stats.shape_steps[static_cast<std::size_t>(s)];
  };
  EXPECT_GT(steps(dcas::DcasShape::kElimOffer), 0u) << "no offer posted";
  EXPECT_GT(steps(dcas::DcasShape::kElimTake), 0u)
      << "no interleaving eliminated a push/pop pair";
  EXPECT_GT(steps(dcas::DcasShape::kElimCancel), 0u) << "no offer cancelled";
  EXPECT_GT(steps(dcas::DcasShape::kElimClear), 0u) << "no take acknowledged";
  // Exactly-once transfer: every take is matched by one clear (the pusher
  // that observed its offer consumed), never by a cancel of the same slot.
  EXPECT_EQ(steps(dcas::DcasShape::kElimTake),
            steps(dcas::DcasShape::kElimClear));
  EXPECT_GT(res.stats.shape_executions[static_cast<std::size_t>(
                dcas::DcasShape::kElimTake)],
            0u);
}

TEST(McExplorer, ListFig16PushesExhaustiveClean) {
  // Pushes after the logical deletes must run the physical deletes
  // (Figure 15) before publishing, including the two-null double splice.
  const mc::ExploreResult res = mc::explore(builtin("list-fig16-pushes"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.two_deleted_states, 0u);
}

TEST(McExplorer, ListPushPastPendingDeleteExhaustiveClean) {
  expect_clean_exhaustive(
      mc::explore(builtin("list-push-past-pending-delete")));
}

TEST(McExplorer, ListSameEndFromEmptyExhaustiveClean) {
  expect_clean_exhaustive(mc::explore(builtin("list-same-end-from-empty")));
}

TEST(McExplorer, ListSingletonThreeThreadsExhaustiveClean) {
  expect_clean_exhaustive(
      mc::explore(builtin("list-singleton-three-threads")));
}

TEST(McExplorer, ListDummyFigure16ExhaustiveClean) {
  // Footnote 4's dummy-node variant on the Figure 16 program: every
  // interleaving stays linearizable and satisfies the variant's RepInv,
  // and some hold a dummy at both sentinels (its two-deleted state).
  const mc::ExploreResult res = mc::explore(builtin("list-dummy-fig16"));
  expect_clean_exhaustive(res);
  EXPECT_GT(res.stats.two_deleted_states, 0u)
      << "never held a dummy at both sentinels";
}

// --- every array scenario under all four ArrayOptions ----------------------

// One test per (scenario, options) pair, so a failure names both.
std::vector<mc::Scenario> array_scenarios_under_every_option() {
  std::vector<mc::Scenario> out;
  for (const mc::Scenario& base : mc::builtin_scenarios()) {
    if (base.deque != mc::DequeKind::kArray) continue;
    for (const mc::DequeKind kind : mc::kArrayKinds) {
      mc::Scenario sc = base;
      sc.deque = kind;
      out.push_back(sc);
    }
  }
  return out;
}

// k pushLefts then k popRights leave an empty capacity-3 array with both
// indices shifted by -k; m pushRights then fill it. Over every k and m,
// every segment position and length, wrapped or not, is a start state.
std::vector<mc::Scenario> capacity_three_start_offsets() {
  std::vector<mc::Scenario> out;
  for (const mc::DequeKind kind : mc::kArrayKinds) {
    for (int k = 0; k < 3; ++k) {
      for (std::uint64_t m = 0; m <= 3; ++m) {
        mc::Scenario sc;
        sc.name = "array-n3-offset" + std::to_string(k) + "-fill" +
                  std::to_string(m);
        sc.deque = kind;
        sc.capacity = 3;
        for (int i = 0; i < k; ++i) sc.setup.push_back({kPushLeft, 1});
        for (int i = 0; i < k; ++i) sc.setup.push_back({kPopRight, 0});
        for (std::uint64_t i = 0; i < m; ++i) {
          sc.setup.push_back({kPushRight, 10 + i});
        }
        sc.threads = {{{kPopLeft, 0}}, {{kPushRight, 9}}};
        out.push_back(sc);
      }
    }
  }
  return out;
}

std::string param_name(const ::testing::TestParamInfo<mc::Scenario>& info) {
  std::string n =
      info.param.name + "__" + mc::deque_kind_name(info.param.deque);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class McExplorerArrayOptions : public ::testing::TestWithParam<mc::Scenario> {
};

INSTANTIATE_TEST_SUITE_P(Builtin, McExplorerArrayOptions,
                         ::testing::ValuesIn(
                             array_scenarios_under_every_option()),
                         param_name);

INSTANTIATE_TEST_SUITE_P(StartOffsets, McExplorerArrayOptions,
                         ::testing::ValuesIn(capacity_three_start_offsets()),
                         param_name);

TEST_P(McExplorerArrayOptions, ExhaustiveClean) {
  SCOPED_TRACE(GetParam().describe());
  expect_clean_exhaustive(mc::explore(GetParam()));
}

TEST(McExplorerArrayOptionsRoster, CoversEveryArrayScenarioAndOption) {
  // Guards the instantiations above against a roster that silently
  // shrinks: at least twelve builtin array scenarios, each under four
  // options.
  EXPECT_GE(array_scenarios_under_every_option().size(), 12u * 4u);
  EXPECT_EQ(capacity_three_start_offsets().size(), 3u * 4u * 4u);
}

// --- DPOR soundness cross-validation ---------------------------------------

// DPOR prunes interleavings, never outcomes: the set of distinct
// per-execution outcomes (every op's result + the final structural state)
// must be identical to the brute-force mode's on the same scenario.
void expect_same_outcomes(const std::string& name) {
  mc::ExplorerOptions dpor;
  dpor.mode = mc::SearchMode::kDpor;
  mc::ExplorerOptions full;
  full.mode = mc::SearchMode::kFull;
  const mc::ExploreResult a = mc::explore(builtin(name), dpor);
  const mc::ExploreResult b = mc::explore(builtin(name), full);
  ASSERT_TRUE(a.ok && a.complete) << a.message;
  ASSERT_TRUE(b.ok && b.complete) << b.message;
  EXPECT_EQ(a.distinct_outcomes, b.distinct_outcomes) << name;
  // The reduced search must not do *more* work than brute force.
  EXPECT_LE(a.stats.transitions, b.stats.transitions) << name;
}

TEST(McExplorerCrossValidation, ArrayN2MatchesBruteForce) {
  expect_same_outcomes("array-n2-mixed");
}

TEST(McExplorerCrossValidation, ArrayBoundaryMatchesBruteForce) {
  expect_same_outcomes("array-n2-boundary-race");
}

TEST(McExplorerCrossValidation, ListSingleItemMatchesBruteForce) {
  expect_same_outcomes("list-single-item-pop-race");
}

TEST(McExplorerCrossValidation, ListElimMatchesBruteForce) {
  expect_same_outcomes("list-elim-same-end");
}

TEST(McExplorerCrossValidation, ListDummyMatchesBruteForce) {
  expect_same_outcomes("list-dummy-fig16");
}

TEST(McExplorerCrossValidation, Figure16MatchesBruteForce) {
  const mc::ExploreResult a = mc::explore(mc::figure16_scenario());
  mc::ExplorerOptions full;
  full.mode = mc::SearchMode::kFull;
  const mc::ExploreResult b = mc::explore(mc::figure16_scenario(), full);
  ASSERT_TRUE(a.ok && a.complete) << a.message;
  ASSERT_TRUE(b.ok && b.complete) << b.message;
  EXPECT_EQ(a.distinct_outcomes, b.distinct_outcomes);
}

// --- bounded-search degradations -------------------------------------------

TEST(McExplorer, ExecutionCapReportsIncomplete) {
  mc::ExplorerOptions opt;
  opt.max_executions = 3;
  const mc::ExploreResult res = mc::explore(builtin("list-mixed"), opt);
  EXPECT_TRUE(res.ok);        // nothing wrong was *found*
  EXPECT_FALSE(res.complete);  // but the space was not exhausted
  EXPECT_LE(res.stats.executions + res.stats.pruned_executions, 3u);
}

TEST(McExplorer, RunScheduleReplaysDeterministically) {
  // An explicit grant schedule re-runs through the same runtime with the
  // same audits; a clean scenario stays clean and the executed schedule
  // is reported.
  const mc::Scenario sc = builtin("array-n2-mixed");
  const mc::ScheduleRunReport rep = mc::run_schedule(sc, {0, 0, 0, 1, 1});
  EXPECT_EQ(rep.kind, mc::ViolationKind::kNone) << rep.detail;
  EXPECT_GE(rep.schedule_executed.size(), 5u);
}

}  // namespace
