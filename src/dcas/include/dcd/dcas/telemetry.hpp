// Per-thread operation counters shared by all DCAS policies.
//
// Experiment E3 measures the paper's claim that the pop-splitting technique
// "costs an extra DCAS per pop", and E2 reports retry pressure at the two
// deque ends — both need exact primitive-operation counts, which the
// policies record here. Counters live in per-thread cache lines (keyed by
// ThreadRegistry slot) so recording them never introduces sharing of its
// own; snapshot() sums the slots and is meant to be called while workers
// are quiesced.
#pragma once

#include <cstdint>

#include "dcd/util/align.hpp"

namespace dcd::dcas {

struct Counters {
  std::uint64_t loads = 0;
  std::uint64_t cas_ops = 0;         // single-word CASes issued internally
  std::uint64_t dcas_calls = 0;       // policy-level DCAS operations
  std::uint64_t dcas_failures = 0;
  std::uint64_t hw_dcas_calls = 0;    // raw cmpxchg16b ops (pools, E1)
  std::uint64_t hw_dcas_failures = 0;
  std::uint64_t helps = 0;           // MCAS helping episodes
  std::uint64_t descriptors = 0;     // MCAS/RDCSS descriptors initialised

  Counters& operator+=(const Counters& o) noexcept {
    loads += o.loads;
    cas_ops += o.cas_ops;
    dcas_calls += o.dcas_calls;
    dcas_failures += o.dcas_failures;
    hw_dcas_calls += o.hw_dcas_calls;
    hw_dcas_failures += o.hw_dcas_failures;
    helps += o.helps;
    descriptors += o.descriptors;
    return *this;
  }
};

// The per-thread blocks are stored as util::CacheAligned<Counters>
// (telemetry.cpp): each slot must fill at most its own line, or two
// threads' hot counters start sharing one and every policy op pays a
// coherence miss. Growing Counters past 8 fields means widening the
// padding scheme, not silently spilling.
static_assert(sizeof(Counters) <= util::kCacheLineSize,
              "Counters must fit one cache line — see telemetry.cpp");

class Telemetry {
 public:
  // The calling thread's counter block.
  static Counters& tl();

  // Sum over all thread slots. Call with workers quiesced for exact values.
  static Counters snapshot();

  // Zero all slots. Same quiescence caveat.
  static void reset();
};

}  // namespace dcd::dcas
