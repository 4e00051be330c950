// Bounded model-checking scenarios.
//
// A scenario is what the explorer enumerates interleavings *of*: a deque
// kind and bound, a single-threaded setup prefix, and a small per-thread
// program of operations (2–4 threads × 1–3 ops keeps the interleaving
// space in the 10^2–10^4 range DPOR handles in seconds). The setup prefix
// is also how a scenario reaches a start state other than the empty deque:
// a wrapped array segment, a full capacity-1 array. The builtin corpus
// covers array deques of capacity 1–4, list deques under 2–3 threads, a
// scenario engineered to drive the list deque through Figure 16's
// two-logically-deleted-nodes state and its double-splice resolution, and
// the same race on the dummy-node variant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dcd/mc/mutation.hpp"
#include "dcd/verify/history.hpp"

namespace dcd::mc {

// The four array kinds are §3's optional fragments (deque::ArrayOptions):
// kArray keeps line 7 and lines 17–18, kArrayNoRecheck drops line 7,
// kArrayNoView drops lines 17–18, kArrayBare drops both. kListDummy is
// footnote 4's dummy-node variant (deque::ListDequeDummy).
enum class DequeKind : std::uint8_t {
  kArray,
  kArrayNoRecheck,
  kArrayNoView,
  kArrayBare,
  kList,
  kListDummy,
};

inline constexpr DequeKind kArrayKinds[] = {
    DequeKind::kArray, DequeKind::kArrayNoRecheck, DequeKind::kArrayNoView,
    DequeKind::kArrayBare};

const char* deque_kind_name(DequeKind k) noexcept;
bool deque_kind_from_name(const char* name, DequeKind& out) noexcept;

struct ScenarioOp {
  verify::OpType type = verify::OpType::kPushRight;
  std::uint64_t arg = 0;  // pushes only
};

struct Scenario {
  std::string name;
  DequeKind deque = DequeKind::kList;
  // Array kinds: length_S. List kinds: node-pool bound — size it generously (the
  // default 64 nodes) so a parked popper's pinned limbo nodes can never
  // starve the allocator and surface a spurious "full" the linearizability
  // spec would reject.
  std::size_t capacity = 64;
  std::vector<ScenarioOp> setup;  // run solo by the controller, recorded
  std::vector<std::vector<ScenarioOp>> threads;
  Mutation mutation = Mutation::kNone;

  std::size_t total_ops() const noexcept;
  std::string describe() const;
};

// "pushRight(5)" / "popLeft" — the textual form replay files use.
std::string format_op(const ScenarioOp& op);
bool parse_op(const std::string& text, ScenarioOp& out);

// The named suite the acceptance tests and the CI `mc` job run.
std::vector<Scenario> builtin_scenarios();
// Lookup by name; returns false if absent.
bool find_builtin(const std::string& name, Scenario& out);

// The engineered Figure 16 scenario (also part of builtin_scenarios):
// two items, one popper per end popping twice — the second pops find the
// opposite end's logical delete and race their two-null double splices.
Scenario figure16_scenario();

}  // namespace dcd::mc
