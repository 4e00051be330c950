#include "dcd/mc/scenario.hpp"

#include <cstring>

namespace dcd::mc {

using verify::OpType;

const char* deque_kind_name(DequeKind k) noexcept {
  switch (k) {
    case DequeKind::kArray: return "array";
    case DequeKind::kArrayNoRecheck: return "array-no-recheck";
    case DequeKind::kArrayNoView: return "array-no-view";
    case DequeKind::kArrayBare: return "array-bare";
    case DequeKind::kList: return "list";
    case DequeKind::kListDummy: return "list-dummy";
  }
  return "?";
}

bool deque_kind_from_name(const char* name, DequeKind& out) noexcept {
  for (const DequeKind k :
       {DequeKind::kArray, DequeKind::kArrayNoRecheck, DequeKind::kArrayNoView,
        DequeKind::kArrayBare, DequeKind::kList, DequeKind::kListDummy}) {
    if (std::strcmp(name, deque_kind_name(k)) == 0) {
      out = k;
      return true;
    }
  }
  return false;
}

std::size_t Scenario::total_ops() const noexcept {
  std::size_t n = setup.size();
  for (const auto& t : threads) n += t.size();
  return n;
}

std::string Scenario::describe() const {
  std::string s = name + ": " + deque_kind_name(deque) +
                  "(cap=" + std::to_string(capacity) + ")";
  if (!setup.empty()) {
    s += " setup";
    for (const ScenarioOp& op : setup) s += " " + format_op(op);
  }
  for (std::size_t t = 0; t < threads.size(); ++t) {
    s += " | t" + std::to_string(t);
    for (const ScenarioOp& op : threads[t]) s += " " + format_op(op);
  }
  if (mutation != Mutation::kNone) {
    s += " | mutation=" + std::string(mutation_name(mutation));
  }
  return s;
}

std::string format_op(const ScenarioOp& op) {
  std::string s = op_name(op.type);
  if (op.type == OpType::kPushRight || op.type == OpType::kPushLeft) {
    s += "(" + std::to_string(op.arg) + ")";
  }
  return s;
}

bool parse_op(const std::string& text, ScenarioOp& out) {
  std::string head = text;
  std::uint64_t arg = 0;
  bool has_arg = false;
  const std::size_t paren = text.find('(');
  if (paren != std::string::npos) {
    if (text.back() != ')') return false;
    head = text.substr(0, paren);
    const std::string digits = text.substr(paren + 1,
                                           text.size() - paren - 2);
    if (digits.empty()) return false;
    for (const char c : digits) {
      if (c < '0' || c > '9') return false;
      arg = arg * 10 + static_cast<std::uint64_t>(c - '0');
    }
    has_arg = true;
  }
  for (const OpType t : {OpType::kPushRight, OpType::kPushLeft,
                         OpType::kPopRight, OpType::kPopLeft}) {
    if (head == op_name(t)) {
      const bool is_push = t == OpType::kPushRight || t == OpType::kPushLeft;
      if (is_push != has_arg) return false;
      out.type = t;
      out.arg = arg;
      return true;
    }
  }
  return false;
}

namespace {

ScenarioOp push_r(std::uint64_t v) { return {OpType::kPushRight, v}; }
ScenarioOp push_l(std::uint64_t v) { return {OpType::kPushLeft, v}; }
ScenarioOp pop_r() { return {OpType::kPopRight, 0}; }
ScenarioOp pop_l() { return {OpType::kPopLeft, 0}; }

}  // namespace

Scenario figure16_scenario() {
  Scenario s;
  s.name = "list-fig16-double-splice";
  s.deque = DequeKind::kList;
  s.capacity = 64;
  s.setup = {push_r(1), push_r(2)};
  // Each popper's first pop logically deletes its end; the second pops
  // then race the Figure 16 physical double splice. Some interleavings
  // visit the two-deleted state (both sentinels' bits set) and execute a
  // successful delete.two_null_splice DCAS — the explorer's stats assert
  // both were reached.
  s.threads = {{pop_l(), pop_l()}, {pop_r(), pop_r()}};
  return s;
}

std::vector<Scenario> builtin_scenarios() {
  std::vector<Scenario> all;

  // Array deques, N ∈ {2, 3}, 2 threads × 3 ops (acceptance set). The ops
  // keep both ends and the (L+1) mod N == R boundary busy: pushes compete
  // with pops for the last slot / last element (Figure 6's interference
  // case) and for the empty-vs-full disambiguation.
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}}) {
    Scenario s;
    s.name = "array-n" + std::to_string(n) + "-mixed";
    s.deque = DequeKind::kArray;
    s.capacity = n;
    s.setup = {push_r(1)};
    s.threads = {{push_l(2), pop_r(), pop_r()}, {pop_l(), push_r(3), pop_l()}};
    all.push_back(s);
  }

  // Array boundary race: one element, both ends pop it — exactly one may
  // win; the loser must prove emptiness via the ambiguous L==R-1 boundary.
  {
    Scenario s;
    s.name = "array-n2-boundary-race";
    s.deque = DequeKind::kArray;
    s.capacity = 2;
    s.setup = {push_r(7)};
    s.threads = {{pop_r(), push_r(8), pop_l()}, {pop_l(), pop_l()}};
    all.push_back(s);
  }

  // Both ends push into the last free slot of a nearly full array, then
  // pop back out: full-vs-push and last-item races at both ends.
  {
    Scenario s;
    s.name = "array-n3-last-slot";
    s.deque = DequeKind::kArray;
    s.capacity = 3;
    s.setup = {push_r(1), push_r(2)};
    s.threads = {{push_r(8), pop_r()}, {push_l(9), pop_l()}};
    all.push_back(s);
  }

  // Wrapped start: two pushLefts from the initial L == 0 put the segment
  // across the end of the array (cells 3 and 0). Both threads push on the
  // wrapped left end and pop the right one, so they contend at both.
  {
    Scenario s;
    s.name = "array-n4-wrapped";
    s.deque = DequeKind::kArray;
    s.capacity = 4;
    s.setup = {push_l(5), push_l(6)};
    s.threads = {{pop_r(), push_l(9)}, {push_l(8), pop_r()}};
    all.push_back(s);
  }

  // Capacity 1: empty and full are one cell apart, so every op sits on the
  // ambiguous boundary. Started empty and started full.
  {
    Scenario s;
    s.name = "array-n1-empty";
    s.deque = DequeKind::kArray;
    s.capacity = 1;
    s.threads = {{push_r(5), pop_l()}, {push_l(6), pop_r()}};
    all.push_back(s);
    s.name = "array-n1-full";
    s.setup = {push_r(3)};
    s.threads = {{pop_r(), push_r(5)}, {pop_l(), push_l(6)}};
    all.push_back(s);
  }

  // Same-end collisions on the right end: three poppers racing for two
  // items (one must find the deque empty), then two pushers and a popper.
  {
    Scenario s;
    s.name = "array-n4-same-end-pops";
    s.deque = DequeKind::kArray;
    s.capacity = 4;
    s.setup = {push_r(1), push_r(2)};
    s.threads = {{pop_r()}, {pop_r()}, {pop_r()}};
    all.push_back(s);
    s.name = "array-n4-same-end-pushes";
    s.threads = {{push_r(8)}, {push_r(9)}, {pop_r()}};
    all.push_back(s);
  }

  // Four threads, one op each (a pop and a push per end): on a capacity-2
  // array holding one item, and on a capacity-3 array started empty and
  // started full — empty, full and last-item races all reachable.
  for (const std::size_t items : {std::size_t{1}, std::size_t{0},
                                  std::size_t{3}}) {
    Scenario s;
    s.deque = DequeKind::kArray;
    s.capacity = items == 1 ? 2 : 3;
    s.name = "array-n" + std::to_string(s.capacity) + "-four-threads-" +
             std::to_string(items) + "-items";
    for (std::uint64_t i = 0; i < items; ++i) s.setup.push_back(push_r(5 + i));
    s.threads = {{pop_r()}, {pop_l()}, {push_r(7)}, {push_l(8)}};
    all.push_back(s);
  }

  // List deque, 2 threads × 3 ops with concurrent pushes and pops (splice
  // vs push interference on the sentinel words).
  {
    Scenario s;
    s.name = "list-mixed";
    s.deque = DequeKind::kList;
    s.setup = {push_r(1)};
    s.threads = {{push_r(2), pop_l(), pop_l()}, {pop_r(), push_l(3), pop_r()}};
    all.push_back(s);
  }

  all.push_back(figure16_scenario());

  // Figure 16 with pushes contending: after each end's logical delete the
  // next op is a push, which must run the physical delete first.
  {
    Scenario s = figure16_scenario();
    s.name = "list-fig16-pushes";
    s.threads = {{pop_l(), push_l(9)}, {pop_r(), push_r(8)}};
    all.push_back(s);
  }

  // The same race on the dummy-node variant: a dummy stands in for each
  // deleted bit.
  {
    Scenario s = figure16_scenario();
    s.name = "list-dummy-fig16";
    s.deque = DequeKind::kListDummy;
    all.push_back(s);
  }

  // A push on the right while a right pop's deletion is pending: the push
  // must splice the null node out (Figure 13 line 7) before its own DCAS.
  {
    Scenario s;
    s.name = "list-push-past-pending-delete";
    s.deque = DequeKind::kList;
    s.setup = {push_r(1)};
    s.threads = {{pop_r()}, {push_r(9)}};
    all.push_back(s);
  }

  // Same-end pushes and pops starting from the empty deque.
  {
    Scenario s;
    s.name = "list-same-end-from-empty";
    s.deque = DequeKind::kList;
    s.threads = {{push_r(5), pop_r()}, {push_r(6), pop_r()}};
    all.push_back(s);
  }

  // Two pushers contend on the right end while a third thread pops it:
  // every push's DCAS on SR can lose to the other push or to the pop's
  // logical delete, and the pop can take the setup item or either new one.
  {
    Scenario s;
    s.name = "list-same-end-two-pushers";
    s.deque = DequeKind::kList;
    s.setup = {push_r(10)};
    s.threads = {{push_r(1)}, {push_r(2)}, {pop_r()}};
    all.push_back(s);
  }

  // Three threads around a single item: both ends pop it while a third
  // pushes on the left.
  {
    Scenario s;
    s.name = "list-singleton-three-threads";
    s.deque = DequeKind::kList;
    s.setup = {push_r(7)};
    s.threads = {{pop_r()}, {pop_l()}, {push_l(9)}};
    all.push_back(s);
  }

  // Executor steal-vs-own-pop race (src/exec, DESIGN.md §14): the owner
  // works its deque from the right (pop_own = popRight, and forks re-push
  // there) while a thief steals from the left. With two tasks queued the
  // contested middle element is handed off exactly once in every
  // interleaving — the shape the executor's complete()/steal accounting
  // relies on. Bound mirrors list-mixed (2 threads, 3+2 ops).
  {
    Scenario s;
    s.name = "list-exec-steal-vs-own-pop";
    s.deque = DequeKind::kList;
    s.setup = {push_r(1), push_r(2)};
    s.threads = {{pop_r(), push_r(3), pop_r()}, {pop_l(), pop_l()}};
    all.push_back(s);
  }

  // The lost-task schedule (DESIGN.md §2 erratum, EXPERIMENTS.md §E15):
  // the owner's pop leaves a right deletion pending, its next push helps
  // splice it while the thief pops the left node, and the thief's next pop
  // reads a stale right neighbour that is null. Two more owner pushes and a
  // pop then leave a newer deleted node at SR, and the thief's two-null
  // splice would unlink the live node between them. Fails without the
  // adjacency check (mutation two-null-skips-adjacency), for both kinds.
  for (const DequeKind k : {DequeKind::kList, DequeKind::kListDummy}) {
    Scenario s;
    s.name = std::string(deque_kind_name(k)) + "-exec-stale-two-null";
    s.deque = k;
    s.setup = {push_r(1), push_r(2), pop_r()};
    s.threads = {{push_r(3), push_r(4), pop_r(), pop_r()}, {pop_l(), pop_l()}};
    all.push_back(s);
  }

  // Suspended-popper shape: both threads pop the single element; one pop's
  // logical delete can sit unresolved (parked popper, §5.2) while the
  // other end must still prove emptiness or perform the physical delete.
  {
    Scenario s;
    s.name = "list-single-item-pop-race";
    s.deque = DequeKind::kList;
    s.setup = {push_r(5)};
    s.threads = {{pop_r(), pop_r()}, {pop_l(), pop_l()}};
    all.push_back(s);
  }

  return all;
}

bool find_builtin(const std::string& name, Scenario& out) {
  for (Scenario& s : builtin_scenarios()) {
    if (s.name == name) {
      out = std::move(s);
      return true;
    }
  }
  return false;
}

}  // namespace dcd::mc
