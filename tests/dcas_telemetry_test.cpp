// Telemetry exactness (single-threaded, so counts are deterministic) —
// E3's "extra DCAS per pop" claim depends on these counters being right.
#include <gtest/gtest.h>

#include "dcd/dcas/policies.hpp"
#include "dcd/dcas/telemetry.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/list_deque_dummy.hpp"

namespace {

using namespace dcd::dcas;
using dcd::deque::ArrayDeque;
using dcd::deque::ListDeque;
using dcd::deque::ListDequeDummy;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

TEST(Telemetry, LoadsAreCounted) {
  Word w(val(1));
  Telemetry::reset();
  for (int i = 0; i < 10; ++i) (void)GlobalLockDcas::load(w);
  EXPECT_EQ(Telemetry::snapshot().loads, 10u);
}

TEST(Telemetry, ResetZeroesEverything) {
  Word a(val(1)), b(val(2));
  (void)GlobalLockDcas::dcas(a, b, val(1), val(2), val(1), val(2));
  Telemetry::reset();
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.dcas_calls, 0u);
  EXPECT_EQ(c.loads, 0u);
  EXPECT_EQ(c.cas_ops, 0u);
}

TEST(Telemetry, ArrayDequeUsesOneDcasPerUncontendedOp) {
  // The paper's baseline cost: one DCAS per successful push or pop.
  ArrayDeque<std::uint64_t, GlobalLockDcas> d(64);
  for (int i = 0; i < 8; ++i) (void)d.push_right(i + 1);
  Telemetry::reset();
  for (int i = 0; i < 100; ++i) {
    (void)d.push_right(5);
    (void)d.pop_right();
  }
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.dcas_calls, 200u);
  EXPECT_EQ(c.dcas_failures, 0u);
}

TEST(Telemetry, ListDequePopCostsAnExtraDcas) {
  // §1.2: "The cost of this splitting technique is an extra DCAS per pop."
  // Steady-state LIFO traffic: push = 1 DCAS, pop = 1 (logical delete)
  // + 1 more in the next same-side op (physical delete) => 3 per pair.
  ListDeque<std::uint64_t, GlobalLockDcas> d(1 << 10);
  for (int i = 0; i < 8; ++i) (void)d.push_right(i + 1);
  (void)d.push_right(9);
  (void)d.pop_right();  // prime: leave a pending deletion
  Telemetry::reset();
  for (int i = 0; i < 100; ++i) {
    (void)d.push_right(5);  // deletes the pending null node (+1), pushes (+1)
    (void)d.pop_right();    // logical delete (+1)
  }
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.dcas_calls, 300u);
  EXPECT_EQ(c.dcas_failures, 0u);
}

TEST(Telemetry, EmptyPopOnListIsDcasFree) {
  // Contrast with the array deque: a clean-empty list pop returns after
  // two loads (sentinel pointer + sentL value) — no DCAS at all.
  ListDeque<std::uint64_t, GlobalLockDcas> d(64);
  Telemetry::reset();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(d.pop_right().has_value());
    EXPECT_FALSE(d.pop_left().has_value());
  }
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.dcas_calls, 0u);
}

// Both list deques synchronise through DCAS alone: no path issues a
// single-word P::cas, which the model checker relies on when it schedules
// only loads and DCASes. GlobalLockDcas counts each P::cas in cas_ops.
template <typename D>
void expect_no_single_word_cas() {
  D d(256);
  Telemetry::reset();
  for (std::uint64_t i = 1; i <= 64; ++i) {
    ASSERT_EQ(d.push_right(i), dcd::deque::PushResult::kOkay);
    ASSERT_EQ(d.push_left(i), dcd::deque::PushResult::kOkay);
  }
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(d.pop_left().has_value());
    ASSERT_TRUE(d.pop_right().has_value());
  }
  EXPECT_FALSE(d.pop_left().has_value());
  EXPECT_FALSE(d.pop_right().has_value());
  const Counters c = Telemetry::snapshot();
  EXPECT_GT(c.dcas_calls, 0u);
  EXPECT_EQ(c.cas_ops, 0u);
}

TEST(Telemetry, ListDequeIssuesNoSingleWordCas) {
  expect_no_single_word_cas<ListDeque<std::uint64_t, GlobalLockDcas>>();
}

TEST(Telemetry, ListDequeDummyIssuesNoSingleWordCas) {
  expect_no_single_word_cas<ListDequeDummy<std::uint64_t, GlobalLockDcas>>();
}

TEST(Telemetry, EmptyPopOnArrayCostsAConfirmingDcas) {
  ArrayDeque<std::uint64_t, GlobalLockDcas> d(64);
  Telemetry::reset();
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(d.pop_right().has_value());
  }
  EXPECT_EQ(Telemetry::snapshot().dcas_calls, 50u);
}

TEST(Telemetry, McasCountsDescriptorsAndInternalCas) {
  Word a(val(1)), b(val(2));
  Telemetry::reset();
  ASSERT_TRUE(McasDcas::dcas(a, b, val(1), val(2), val(3), val(4)));
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.dcas_calls, 1u);
  // 1 MCAS descriptor + 2 RDCSS descriptors.
  EXPECT_EQ(c.descriptors, 3u);
  // Phase 1: 2 RDCSS installs + 2 completes; decision CAS; phase 2: 2.
  EXPECT_GE(c.cas_ops, 7u);
}

}  // namespace
