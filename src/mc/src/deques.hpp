// The deque instantiations behind each DequeKind, shared by the explorer
// (over SchedDcasT) and the chaos replay (over ChaosDcas), plus the
// per-type taps both need between steps: the checker's capacity, the §5
// audit, the Figure 16 two-deleted probe and a structural fingerprint.
#pragma once

#include <cstdint>
#include <string>

#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/list_deque_dummy.hpp"
#include "dcd/mc/mutation.hpp"
#include "dcd/mc/scenario.hpp"
#include "dcd/reclaim/policies.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/verify/driver.hpp"
#include "dcd/verify/rep_auditor.hpp"
#include "dcd/verify/spec_deque.hpp"

namespace dcd::mc {

// Calls f.template operator()<D>() with the deque type of `kind` over
// policy P. Elimination: one slot and one poll keep the extra interleaving
// depth minimal while every protocol transition (offer/take/cancel/clear)
// stays reachable. The pools' internal atomics are raw std::atomic, not
// policy Words, so allocation adds no scheduling points.
template <typename P, typename F>
decltype(auto) with_deque_type(DequeKind kind, F&& f) {
  using T = std::uint64_t;
  using deque::ArrayDeque;
  using deque::ArrayOptions;
  switch (kind) {
    case DequeKind::kArray:
      return f.template operator()<ArrayDeque<T, P>>();
    case DequeKind::kArrayNoRecheck:
      return f.template operator()<ArrayDeque<T, P, ArrayOptions{false, true}>>();
    case DequeKind::kArrayNoView:
      return f.template operator()<ArrayDeque<T, P, ArrayOptions{true, false}>>();
    case DequeKind::kArrayBare:
      return f.template operator()<ArrayDeque<T, P, ArrayOptions{false, false}>>();
    case DequeKind::kList:
      return f.template operator()<deque::ListDeque<T, P, reclaim::EbrReclaim>>();
    case DequeKind::kListElim:
      return f.template operator()<
          deque::ListDeque<T, P, reclaim::EbrReclaim, reclaim::MagazinePool,
                           deque::ListOptions{.elimination = true,
                                              .elim_slots = 1,
                                              .elim_polls = 1}>>();
    case DequeKind::kListDummy:
      return f.template operator()<
          deque::ListDequeDummy<T, P, reclaim::EbrReclaim>>();
  }
  DCD_ASSERT(false && "unknown DequeKind");
  __builtin_unreachable();
}

template <typename D>
struct DequeTraits;

template <typename P, deque::ArrayOptions O>
struct DequeTraits<deque::ArrayDeque<std::uint64_t, P, O>> {
  using D = deque::ArrayDeque<std::uint64_t, P, O>;
  static std::size_t checker_capacity(std::size_t capacity) {
    return capacity;
  }
  static verify::AuditResult audit(const D& d) {
    return verify::RepAuditor::audit_array(d.rep_view_unsynchronized());
  }
  static bool two_deleted(const D&) { return false; }
  static std::string fingerprint(const D& d) {
    const deque::ArrayRepView v = d.rep_view_unsynchronized();
    std::string s = "L" + std::to_string(v.l) + "R" + std::to_string(v.r);
    for (const std::uint64_t w : v.cells) s += "," + std::to_string(w);
    return s;
  }
};

// The elimination layer is invisible to the list representation (slots
// are back to kNull whenever a completed protocol is audited, and an
// in-flight offer lives outside the rep view).
template <typename P, typename R, typename Pool, deque::ListOptions O>
struct DequeTraits<deque::ListDeque<std::uint64_t, P, R, Pool, O>> {
  using D = deque::ListDeque<std::uint64_t, P, R, Pool, O>;
  static std::size_t checker_capacity(std::size_t) {
    return verify::SpecDeque::kUnbounded;
  }
  static verify::AuditResult audit(const D& d) {
    return verify::RepAuditor::audit_list(d.rep_view_unsynchronized());
  }
  static bool two_deleted(const D& d) {
    return d.left_deleted_bit_unsynchronized() &&
           d.right_deleted_bit_unsynchronized();
  }
  static std::string fingerprint(const D& d) {
    const deque::ListRepView v = d.rep_view_unsynchronized();
    std::string s = v.left_deleted ? "D[" : "[";
    for (const std::uint64_t w : v.values) s += std::to_string(w) + ",";
    s += v.right_deleted ? "]D" : "]";
    return s;
  }
};

// The dummy variant has no RepView for RepAuditor; its own RepInv check
// (dummies only at sentinel level, each licensing exactly one null end)
// stands in, with one clause name.
template <typename P, typename R>
struct DequeTraits<deque::ListDequeDummy<std::uint64_t, P, R>> {
  using D = deque::ListDequeDummy<std::uint64_t, P, R>;
  static std::size_t checker_capacity(std::size_t) {
    return verify::SpecDeque::kUnbounded;
  }
  static verify::AuditResult audit(const D& d) {
    verify::AuditResult r;
    r.ok = d.check_rep_inv_unsynchronized();
    if (!r.ok) r.detail = "list_dummy.rep_inv";
    return r;
  }
  static bool two_deleted(const D& d) {
    return d.left_dummy_unsynchronized() && d.right_dummy_unsynchronized();
  }
  static std::string fingerprint(const D& d) {
    return std::string(d.left_dummy_unsynchronized() ? "D" : "") + "n" +
           std::to_string(d.size_unsynchronized()) +
           (d.right_dummy_unsynchronized() ? "D" : "");
  }
};

// Runs and records one scenario op; the mutation layer learns whether the
// calling thread is inside a push.
template <typename D>
verify::Operation run_op(D& d, const ScenarioOp& op) {
  const PushScope scope(op.type == verify::OpType::kPushRight ||
                        op.type == verify::OpType::kPushLeft);
  return verify::recorded_op(d, op.type, op.arg);
}

}  // namespace dcd::mc
