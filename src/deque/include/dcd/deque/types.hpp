// Result and option types shared by the deque implementations.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

namespace dcd::deque {

// §2.2: each push returns "okay" or "full"; each pop returns a value or
// "empty" (modelled as an empty optional).
enum class PushResult {
  kOkay,
  kFull,
};

// Footnote 3 with a stalled reader. A list-deque push whose allocation
// failed while reclamation was stalled (a thread pinned at an older epoch
// blocked the epoch advance, or nodes retired by the pusher or by another
// live thread still wait in limbo) is not "full": its nodes are in limbo.
// The retry must run unpinned, since a pinned retrier blocks the very
// advance it waits for, so `attempt(stalled)` is one whole pinned push
// that sets `stalled` when it failed for that reason. The retries are
// bounded, so push stays non-blocking: after kStallRetries sleeps, about
// 0.19 s in total, it reports kFull. A push that fails with nothing in
// limbo and no straggler returns at once.
inline constexpr std::uint32_t kStallRetries = 32;

template <typename Attempt>
PushResult push_past_stalls(Attempt&& attempt) {
  bool stalled = false;
  PushResult r = attempt(stalled);
  for (std::uint32_t i = 0;
       i < kStallRetries && r == PushResult::kFull && stalled; ++i) {
    // Sleep, not spin: the straggler may need this CPU. 8 us doubling to
    // 8.2 ms, so 22 of the retries sleep the full 8.2 ms.
    std::this_thread::sleep_for(
        std::chrono::microseconds(8u << std::min(i, 10u)));
    stalled = false;
    r = attempt(stalled);
  }
  return r;
}

// The two code fragments §3 explicitly calls optional ("we note that the
// algorithm would still be correct if line 7, and/or lines 17 and 18, were
// deleted ... Experimentation would be required"). Experiment E4 sweeps
// these.
struct ArrayOptions {
  // Line 7: re-read the index before attempting the boundary-confirming
  // DCAS, to skip a presumably-costly DCAS that would likely fail.
  bool recheck_index = true;
  // Lines 17–18: use the stronger DCAS form (atomic view on failure) to
  // detect "the deque was empty/full when my DCAS failed" without another
  // loop iteration. When false, only the weaker boolean DCAS is used —
  // exactly the trade-off the paper describes.
  bool failure_view = true;

  constexpr bool operator==(const ArrayOptions&) const = default;
};

// Optional scalability layers for the list deque (NTTP, like ArrayOptions).
// Everything defaults off so `ListDeque<T>` stays byte-for-byte the paper's
// algorithm; the elimination layer is the documented extension of
// DESIGN.md §13.
struct ListOptions {
  // Per-end elimination arrays: a same-end push and pop that are both in
  // backoff exchange values directly, never touching the sentinel words.
  bool elimination = false;
  // Words per end scanned for an exchange partner (capped by the
  // implementation's kMaxElimSlots).
  std::uint32_t elim_slots = 4;
  // How many polls a pusher waits on an installed offer before cancelling.
  std::uint32_t elim_polls = 64;

  constexpr bool operator==(const ListOptions&) const = default;
};

// --- representation views (input to verify::RepAuditor) -------------------
//
// Structural snapshots of a deque's shared state, taken by the deques'
// rep_view_unsynchronized() accessors at a moment when no step is in
// flight (a quiescent deque, or a model-checker state where every model
// thread is parked *before* its next access). The §5 invariant clauses are
// judged over these views by dcd::verify::RepAuditor, which keeps the
// clause-by-clause logic testable against synthetic states.

struct ArrayRepView {
  std::size_t n = 0;  // capacity (length_S)
  std::size_t l = 0;  // decoded L index (may be out of range if corrupted)
  std::size_t r = 0;  // decoded R index
  std::vector<bool> cell_null;  // S[i] == null, i in [0, n)
  std::vector<std::uint64_t> cells;  // raw cell words (diagnostics /
                                     // state fingerprints)
};

struct ListRepView {
  bool sentinel_values_ok = false;  // SL/SR value words intact
  bool reachable = false;       // SL → SR right-walk closes within bound
  bool backlinks_ok = false;    // every left word points at the predecessor
  bool interior_deleted = false;  // a deleted bit inside the chain (illegal:
                                  // the bit lives only on sentinel inward
                                  // words)
  bool left_deleted = false;    // deleted bit on SL.R
  bool right_deleted = false;   // deleted bit on SR.L
  std::vector<std::uint64_t> values;  // chain value words, left → right
};

template <typename D, typename T>
concept ConcurrentDeque = requires(D d, T v) {
  { d.push_right(v) } -> std::same_as<PushResult>;
  { d.push_left(v) } -> std::same_as<PushResult>;
  { d.pop_right() } -> std::same_as<std::optional<T>>;
  { d.pop_left() } -> std::same_as<std::optional<T>>;
};

}  // namespace dcd::deque
