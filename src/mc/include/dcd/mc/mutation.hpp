// Seeded bug injection for model-checker sensitivity tests.
//
// A verifier that has never failed is untrustworthy; these mutations plant
// the §5 bugs the paper's proofs rule out, so the test suite can demand
// that the explorer (a) catches each one and (b) emits a counterexample
// that replays — including under ChaosDcas on real threads.
//
// MutantDcasT sits *under* the observation wrapper (SchedDcasT or
// ChaosDcas), so schedulers and park rules classify the DCAS the algorithm
// *intended* — the mutation corrupts only what reaches memory:
//
//     deque → SchedDcasT<MutantDcasT<GlobalLockDcas>>   (model checking)
//     deque → ChaosDcas<MutantDcasT<GlobalLockDcas>>    (counterexample
//                                                        replay on threads)
#pragma once

#include <cstdint>

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/global_lock.hpp"
#include "dcd/dcas/word.hpp"

namespace dcd::mc {

enum class Mutation : std::uint8_t {
  kNone = 0,
  // List deque: the logical-delete DCAS nulls the value but "forgets" the
  // deleted bit on the sentinel's inward pointer. The popped node is left
  // looking like a live node holding null — an unlicensed null the §5
  // invariant forbids, and later pops on that side report empty while the
  // deque still holds elements.
  kDropDeletedBit,
  // Array deque: the pop-commit DCAS moves the index but "forgets" to null
  // the popped cell. The cell is then a non-null value inside the
  // supposedly-null region (Figure 18 violation) and gets popped twice.
  kPopKeepsValue,
  // List deque: a push skips Figure 13's line 7. Loads inside a push see
  // the sentinel word with its deleted bit hidden, and the push's DCAS
  // expects the bit back, so the push splices its node in *behind* the
  // logically-deleted null node, stranding that null mid-chain.
  kPushSkipsDeletedCheck,
  // List deques: the two-null splice skips the check that its two null
  // nodes are neighbours (dcas::skips_two_null_adjacency), which the
  // paper's Figures 17/34 lack. A stale neighbour read then lets the
  // splice unlink the live nodes between two non-adjacent nulls.
  kTwoNullSkipsAdjacency,
};

const char* mutation_name(Mutation m) noexcept;
// Returns false (and leaves `out` untouched) for unknown names.
bool mutation_from_name(const char* name, Mutation& out) noexcept;

// Process-wide active mutation (kNone = policies are faithful wrappers).
Mutation active_mutation() noexcept;
void set_active_mutation(Mutation m) noexcept;

class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) { set_active_mutation(m); }
  ~ScopedMutation() { set_active_mutation(Mutation::kNone); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

// Marks the calling thread as running a push for the scope's lifetime. The
// scenario executors open one around every op; kPushSkipsDeletedCheck
// corrupts only what a push sees.
class PushScope {
 public:
  explicit PushScope(bool push) noexcept : outer_(in_push_) {
    in_push_ = push;
  }
  ~PushScope() { in_push_ = outer_; }
  PushScope(const PushScope&) = delete;
  PushScope& operator=(const PushScope&) = delete;

  static bool active() noexcept { return in_push_; }

 private:
  static inline thread_local bool in_push_ = false;
  bool outer_;
};

template <dcas::DcasPolicy Inner>
class MutantDcasT {
 public:
  static constexpr const char* kName = "mutant";
  static constexpr bool kLockFree = Inner::kLockFree;

  using InnerPolicy = Inner;

  static std::uint64_t load(const dcas::Word& w) noexcept {
    const std::uint64_t v = Inner::load(w);
    if (!hides_deleted_bit() || !dcas::deleted_of(v)) return v;
    hidden_ = {&w, v};
    return dcas::clear_deleted(v);
  }

  static void store_init(dcas::Word& w, std::uint64_t v) noexcept {
    Inner::store_init(w, v);
  }

  static bool cas(dcas::Word& w, std::uint64_t oldv,
                  std::uint64_t newv) noexcept {
    return Inner::cas(w, oldv, newv);
  }

  static bool skips_two_null_adjacency() noexcept {
    return active_mutation() == Mutation::kTwoNullSkipsAdjacency;
  }

  static bool dcas(dcas::Word& a, dcas::Word& b, std::uint64_t oa,
                   std::uint64_t ob, std::uint64_t na,
                   std::uint64_t nb) noexcept {
    mutate(a, oa, ob, na, nb);
    return Inner::dcas(a, b, oa, ob, na, nb);
  }

  static bool dcas_view(dcas::Word& a, dcas::Word& b, std::uint64_t& oa,
                        std::uint64_t& ob, std::uint64_t na,
                        std::uint64_t nb) noexcept {
    mutate(a, oa, ob, na, nb);
    return Inner::dcas_view(a, b, oa, ob, na, nb);
  }

 private:
  struct Hidden {
    const dcas::Word* word = nullptr;
    std::uint64_t value = 0;  // as loaded, deleted bit included
  };
  static inline thread_local Hidden hidden_{};

  static bool hides_deleted_bit() noexcept {
    return active_mutation() == Mutation::kPushSkipsDeletedCheck &&
           PushScope::active();
  }

  static void mutate(const dcas::Word& a, std::uint64_t& oa,
                     std::uint64_t ob, std::uint64_t& na,
                     std::uint64_t& nb) noexcept {
    if (hides_deleted_bit() && &a == hidden_.word &&
        oa == dcas::clear_deleted(hidden_.value)) {
      oa = hidden_.value;  // expect the bit the push never looked at
      return;
    }
    const Mutation m = active_mutation();
    if (m == Mutation::kNone) return;
    const dcas::DcasShape s = dcas::classify_dcas(oa, ob, na, nb);
    if (m == Mutation::kDropDeletedBit &&
        s == dcas::DcasShape::kLogicalDelete) {
      na = dcas::clear_deleted(na);
    } else if (m == Mutation::kPopKeepsValue &&
               s == dcas::DcasShape::kPopCommit) {
      nb = ob;
    }
  }
};

static_assert(dcas::DcasPolicy<MutantDcasT<dcas::GlobalLockDcas>>);

}  // namespace dcd::mc
