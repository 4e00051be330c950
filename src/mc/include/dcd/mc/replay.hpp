// Replayable counterexample files.
//
// A violation found by the explorer is only useful if it reproduces
// outside the explorer, so every counterexample serializes to a small text
// file carrying the full scenario (deque kind, capacity, mutation, setup
// and per-thread ops), the minimized grant schedule, and the expected
// verdict. Two independent executors consume the same file:
//
//   * run_replay        — the model-checker runtime re-applies the grant
//                         schedule step by step (deterministic, exact);
//   * run_replay_chaos  — real preemptive threads under
//                         ChaosDcas<MutantDcasT<GlobalLockDcas>>, with the
//                         file's `chaos-park` rules staging the racy
//                         window (threads then start one at a time, each
//                         running until it parks or finishes); this is the
//                         "one command repro" path that shows the bug is
//                         not an artifact of the cooperative scheduler.
//
// Format (one directive per line; '#' starts a comment):
//
//   name: array-n2-mixed
//   deque: array | array-no-recheck | array-no-view | array-bare | list
//          | list-elim | list-dummy
//   capacity: 64
//   mutation: none | drop-deleted-bit | pop-keeps-value
//             | push-skips-deleted-check | two-null-skips-adjacency
//   setup: pushRight(1) pushRight(2)
//   thread: popLeft popLeft          # one line per model thread
//   thread: popRight popRight
//   expect: none | any | rep-invariant | not-linearizable | ...
//   expect-shape: delete.two_null_splice >= 1
//   expect-two-deleted: >= 1
//   schedule: 0 0 1 1 0 ...
//   chaos-park: pop.logical_delete 1
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcd/mc/explorer.hpp"
#include "dcd/mc/scenario.hpp"

namespace dcd::mc {

struct ReplayFile {
  Scenario scenario;
  std::vector<int> schedule;

  // `expect:` — absent means "don't check the verdict".
  bool has_expect = false;
  bool expect_any = false;  // any violation (kind irrelevant)
  ViolationKind expect_kind = ViolationKind::kNone;

  // `expect-shape:` — minimum successful DCAS writes of a named sync
  // point's shape ("dcas.any" sums every shape).
  struct ShapeExpect {
    std::string point;
    std::uint64_t min = 1;
  };
  std::vector<ShapeExpect> shape_expects;

  // `expect-two-deleted:` — minimum explored states with both sentinel
  // deleted bits set (list scenarios; scheduled replay only).
  std::uint64_t min_two_deleted = 0;

  // `chaos-park:` — rules armed on the ChaosController before the real
  // threads start (chaos replay only).
  struct ChaosPark {
    std::string point;
    std::uint64_t nth = 1;
  };
  std::vector<ChaosPark> chaos_parks;
};

bool parse_replay(const std::string& text, ReplayFile& out,
                  std::string& error);
bool load_replay_file(const std::string& path, ReplayFile& out,
                      std::string& error);
std::string serialize_replay(const ReplayFile& file);

// Packages a violation the explorer found into a file whose scheduled
// replay must reproduce the same ViolationKind.
ReplayFile make_counterexample(const Scenario& scenario,
                               const Violation& violation);

struct ReplayOutcome {
  bool ok = false;          // every expectation in the file held
  ViolationKind kind = ViolationKind::kNone;  // what this run observed
  std::string message;      // first failed expectation, or a summary
  ScheduleRunReport report;  // scheduled replay only (empty for chaos)
};

// Deterministic replay through the model-checker runtime.
ReplayOutcome run_replay(const ReplayFile& file,
                         const ExplorerOptions& options = {});

// Real-thread replay under ChaosDcas; `park_timeout_ms` bounds each
// wait_parked (a rule that never fires is reported, not hung on).
ReplayOutcome run_replay_chaos(const ReplayFile& file,
                               std::uint64_t park_timeout_ms = 5000);

}  // namespace dcd::mc
