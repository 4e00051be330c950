// Exhaustive stateless model checker over DCAS sync points.
//
// Explores every interleaving of a bounded Scenario's shared-memory steps
// against the *production* deque templates: ArrayDeque (all four
// ArrayOptions), ListDeque and ListDequeDummy compiled over SchedDcasT.
// Each execution re-runs the scenario under a forced grant sequence;
// classic Flanagan–Godefroid DPOR (vector-clock race detection + backtrack
// sets) with sleep sets prunes interleavings that only reorder independent
// steps, preserving coverage of every Mazurkiewicz trace.
//
// At every explored state the §5 representation invariant is audited
// (verify::RepAuditor over the deque's live rep view, or the dummy
// variant's own RepInv check — safe because all model threads are parked
// *between* atomic steps); at the end of every
// execution the recorded history goes to the WGL linearizability checker.
// The first violation stops the search and is reported with the exact
// grant schedule that produced it, greedily minimized (fewer context
// switches) while it still reproduces; replay.hpp turns that schedule into
// a one-command repro file.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dcd/dcas/chaos.hpp"
#include "dcd/mc/scenario.hpp"

namespace dcd::mc {

enum class SearchMode : std::uint8_t {
  kDpor,  // sleep sets + DPOR backtrack points
  kFull,  // backtrack everything: brute-force baseline the tests compare
          // DPOR's outcome coverage against (tiny scenarios only)
};

struct ExplorerOptions {
  SearchMode mode = SearchMode::kDpor;
  // Hard stops so a buggy search degrades into a reported partial result
  // instead of a hung job.
  std::uint64_t max_executions = 1'000'000;
  std::uint64_t max_steps_per_execution = 100'000;
  bool audit_rep = true;
  bool check_linearizability = true;
  std::uint64_t linearizability_state_limit = 5'000'000;
  // Greedy schedule minimization of a found violation (re-runs the
  // scenario up to `minimize_budget` more times).
  bool minimize = true;
  std::uint64_t minimize_budget = 200;
};

enum class ViolationKind : std::uint8_t {
  kNone = 0,
  kRepInvariant,     // RepAuditor clause failed at an explored state
  kNotLinearizable,  // WGL checker rejected an execution's history
  kCheckerLimit,     // WGL budget exhausted (no verdict for an execution)
  kStepBudget,       // execution exceeded max_steps_per_execution
};

const char* violation_kind_name(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kNone;
  std::string detail;
  // Grant sequence (thread ids, start pseudo-steps included) reproducing
  // the violation, and its minimized form (equal if minimization is off
  // or found nothing shorter).
  std::vector<int> schedule;
  std::vector<int> minimized_schedule;
};

struct ExploreStats {
  std::uint64_t executions = 0;
  std::uint64_t pruned_executions = 0;  // abandoned as sleep-set-redundant
  std::uint64_t transitions = 0;        // granted steps in explored runs
  std::uint64_t distinct_states = 0;    // schedule-tree nodes created
  std::uint64_t max_depth = 0;
  // Successful DCAS writes per shape across all explored steps, and the
  // number of executions containing at least one such write. The Figure 16
  // acceptance test keys on shape kTwoNullSplice here.
  std::array<std::uint64_t, dcas::kDcasShapeCount> shape_steps{};
  std::array<std::uint64_t, dcas::kDcasShapeCount> shape_executions{};
  // Explored states (list scenarios) where *both* sentinels carried the
  // deleted bit — the two-logically-deleted-nodes state Figure 16 races
  // to resolve.
  std::uint64_t two_deleted_states = 0;
};

struct ExploreResult {
  bool ok = false;        // no violation found
  bool complete = false;  // the whole reduced interleaving space was
                          // visited (false if a cap stopped the search)
  Violation violation;
  ExploreStats stats;
  // Sorted distinct per-execution outcomes (every op's result + the final
  // structural state). DPOR prunes *interleavings*, never outcomes, so
  // this set must be identical between kDpor and kFull on the same
  // scenario — the cross-validation tests assert exactly that.
  std::vector<std::string> distinct_outcomes;
  std::string message;
};

ExploreResult explore(const Scenario& scenario,
                      const ExplorerOptions& options = {});

// Re-runs one grant schedule (e.g. a counterexample) with the same
// auditing as the explorer. Forced grants naming threads that are not
// currently runnable are skipped; once the schedule is exhausted the run
// continues smallest-runnable-first to completion.
struct ScheduleRunReport {
  ViolationKind kind = ViolationKind::kNone;
  std::string detail;
  std::vector<int> schedule_executed;
  std::array<std::uint64_t, dcas::kDcasShapeCount> shape_steps{};
  std::uint64_t two_deleted_states = 0;
};

ScheduleRunReport run_schedule(const Scenario& scenario,
                               const std::vector<int>& forced,
                               const ExplorerOptions& options = {});

}  // namespace dcd::mc
