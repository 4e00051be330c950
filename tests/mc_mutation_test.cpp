// Sensitivity tests: a verifier that has never failed is untrustworthy.
//
// Each seeded mutation (mc/mutation.hpp) plants a §5 bug; the explorer
// must (a) catch it, (b) emit a minimized counterexample whose scheduled
// replay reproduces the identical verdict, and (c) the same file must
// reproduce *some* violation on real threads under ChaosDcas — the
// one-command-repro acceptance criterion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dcd/dcas/chaos.hpp"

#include "dcd/mc/explorer.hpp"
#include "dcd/mc/mutation.hpp"
#include "dcd/mc/replay.hpp"
#include "dcd/mc/scenario.hpp"

namespace {

using namespace dcd;

mc::Scenario mutated(const std::string& name, mc::Mutation m) {
  mc::Scenario sc;
  EXPECT_TRUE(mc::find_builtin(name, sc)) << name;
  sc.mutation = m;
  return sc;
}

// The explorer must catch the mutation, and its counterexample must
// survive a serialize → parse round trip and reproduce the identical
// verdict through the scheduled runtime. Returns the parsed file.
void expect_caught_with_scheduled_replay(const mc::Scenario& sc,
                                         mc::ReplayFile& parsed) {
  const mc::ExploreResult res = mc::explore(sc);
  ASSERT_FALSE(res.ok) << "mutation survived exploration: " << res.message;
  ASSERT_NE(res.violation.kind, mc::ViolationKind::kNone);
  ASSERT_FALSE(res.violation.schedule.empty());
  ASSERT_FALSE(res.violation.minimized_schedule.empty());
  EXPECT_LE(res.violation.minimized_schedule.size(),
            res.violation.schedule.size());

  const mc::ReplayFile file = mc::make_counterexample(sc, res.violation);
  const std::string text = mc::serialize_replay(file);
  std::string error;
  ASSERT_TRUE(mc::parse_replay(text, parsed, error)) << error;
  EXPECT_EQ(parsed.scenario.mutation, sc.mutation);
  EXPECT_EQ(parsed.schedule, file.schedule);

  const mc::ReplayOutcome scheduled = mc::run_replay(parsed);
  EXPECT_TRUE(scheduled.ok) << scheduled.message;
  EXPECT_EQ(scheduled.kind, res.violation.kind);
}

// Also reproduces the bug under ChaosDcas on real preemptive threads.
// `parks` stage the chaos replay's racy window, for mutations that only
// bite inside one.
void expect_caught_and_replayable(
    const mc::Scenario& sc,
    const std::vector<mc::ReplayFile::ChaosPark>& parks = {}) {
  mc::ReplayFile parsed;
  expect_caught_with_scheduled_replay(sc, parsed);
  if (::testing::Test::HasFatalFailure()) return;

  // The verdict kind may differ (chaos audits only the final state), but
  // the bug must still surface as a violation.
  parsed.chaos_parks = parks;
  const mc::ReplayOutcome chaos = mc::run_replay_chaos(parsed);
  EXPECT_TRUE(chaos.ok) << chaos.message;
  EXPECT_NE(chaos.kind, mc::ViolationKind::kNone);
}

TEST(McMutation, DropDeletedBitCaughtOnList) {
  // The logical-delete DCAS "forgets" the deleted bit: the popped node is
  // left as a live node holding an unlicensed null. RepAuditor flags the
  // very state the mutated DCAS creates.
  expect_caught_and_replayable(
      mutated("list-fig16-double-splice", mc::Mutation::kDropDeletedBit));
}

TEST(McMutation, DropDeletedBitCaughtOnMixedListProgram) {
  expect_caught_and_replayable(
      mutated("list-mixed", mc::Mutation::kDropDeletedBit));
}

TEST(McMutation, PopKeepsValueCaughtOnArray) {
  // The pop-commit DCAS moves the index but keeps the cell value — a
  // Figure 18 violation (non-null in the supposedly-null segment) that
  // later manifests as a double pop.
  expect_caught_and_replayable(
      mutated("array-n2-mixed", mc::Mutation::kPopKeepsValue));
}

TEST(McMutation, PopKeepsValueHarmlessOnEmptyArray) {
  // Control: pops that only ever find the array empty never reach the
  // mutated pop-commit DCAS, so the catch above is attributable to it.
  mc::Scenario sc;
  sc.name = "array-n4-pops-on-empty";
  sc.deque = mc::DequeKind::kArray;
  sc.capacity = 4;
  sc.threads = {{{verify::OpType::kPopRight, 0}},
                {{verify::OpType::kPopLeft, 0}}};
  sc.mutation = mc::Mutation::kPopKeepsValue;
  const mc::ExploreResult res = mc::explore(sc);
  EXPECT_TRUE(res.ok && res.complete) << res.message;
}

TEST(McMutation, PushSkipsDeletedCheckCaughtOnList) {
  // A push that skips Figure 13's line 7 while a right pop's deletion is
  // pending splices its node in behind the logically-deleted null node,
  // which is left mid-chain without a deleted bit to license it. On real
  // threads the popper parks right after its logical delete, so the push
  // runs inside the window.
  expect_caught_and_replayable(
      mutated("list-push-past-pending-delete",
              mc::Mutation::kPushSkipsDeletedCheck),
      {{dcas::sync_point::kLogicalDelete, 1}});
}

TEST(McMutation, PushMutationHarmlessWithoutPendingDeletion) {
  // Control: with no pop in the program no deleted bit ever exists, so
  // the mutated pushes behave exactly like the real ones — the catch above
  // is attributable to the skipped check alone.
  mc::Scenario sc;
  sc.name = "list-pushes-only";
  sc.deque = mc::DequeKind::kList;
  sc.setup = {{verify::OpType::kPushRight, 5}};
  sc.threads = {{{verify::OpType::kPushRight, 9}},
                {{verify::OpType::kPushLeft, 8}}};
  sc.mutation = mc::Mutation::kPushSkipsDeletedCheck;
  const mc::ExploreResult res = mc::explore(sc);
  EXPECT_TRUE(res.ok && res.complete) << res.message;
}

// Without the adjacency check the thief's two-null splice, made over a
// stale right neighbour, unlinks a live node: a value is lost. The
// thief's window lies between two loads of delete_left, and chaos parks
// fire only at CAS/DCAS sync points, so there is no chaos replay here;
// DequeConservation.* reproduces the loss on real threads.
TEST(McMutation, TwoNullSkipsAdjacencyCaughtOnList) {
  mc::ReplayFile parsed;
  expect_caught_with_scheduled_replay(
      mutated("list-exec-stale-two-null",
              mc::Mutation::kTwoNullSkipsAdjacency),
      parsed);
}

TEST(McMutation, TwoNullSkipsAdjacencyCaughtOnListDummy) {
  mc::ReplayFile parsed;
  expect_caught_with_scheduled_replay(
      mutated("list-dummy-exec-stale-two-null",
              mc::Mutation::kTwoNullSkipsAdjacency),
      parsed);
}

TEST(McMutation, TwoNullMutationHarmlessOnFigure16) {
  // Control: in Figure 16 the two nulls are always neighbours, so the
  // dropped check never changes a decision there — the catches above are
  // attributable to the stale-neighbour schedule alone.
  const mc::ExploreResult res = mc::explore(mutated(
      "list-fig16-double-splice", mc::Mutation::kTwoNullSkipsAdjacency));
  EXPECT_TRUE(res.ok && res.complete) << res.message;
}

TEST(McMutation, UnmutatedScenariosStayClean) {
  // Control: the same scenarios with mutation none are clean, so the
  // catches above are attributable to the planted bugs alone.
  mc::Scenario sc;
  ASSERT_TRUE(mc::find_builtin("list-fig16-double-splice", sc));
  EXPECT_TRUE(mc::explore(sc).ok);
  ASSERT_TRUE(mc::find_builtin("array-n2-mixed", sc));
  EXPECT_TRUE(mc::explore(sc).ok);
  ASSERT_TRUE(mc::find_builtin("list-push-past-pending-delete", sc));
  EXPECT_TRUE(mc::explore(sc).ok);
  ASSERT_TRUE(mc::find_builtin("list-exec-stale-two-null", sc));
  EXPECT_TRUE(mc::explore(sc).ok);
}

TEST(McMutation, NamesRoundTrip) {
  for (const mc::Mutation m :
       {mc::Mutation::kNone, mc::Mutation::kDropDeletedBit,
        mc::Mutation::kPopKeepsValue, mc::Mutation::kPushSkipsDeletedCheck,
        mc::Mutation::kTwoNullSkipsAdjacency}) {
    mc::Mutation back{};
    ASSERT_TRUE(mc::mutation_from_name(mc::mutation_name(m), back));
    EXPECT_EQ(back, m);
  }
  mc::Mutation out{};
  EXPECT_FALSE(mc::mutation_from_name("no-such-mutation", out));
}

}  // namespace
