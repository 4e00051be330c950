// Lock-free DCAS built from single-word CAS.
//
// This is the substitution for the DCAS hardware the paper anticipated and
// that never shipped: a two-word instance of the multi-word CAS of Harris,
// Fraser & Pratt ("A practical multi-word compare-and-swap operation",
// DISC 2002), which itself is in the lineage of the cooperative software
// emulations the paper cites ([8] Barnes, [30] Shavit & Touitou). Using it
// as the deques' DCAS policy preserves the paper's end-to-end non-blocking
// progress claim on CAS-only hardware.
//
// Structure:
//   * An operation publishes an McasDesc and installs a marked reference
//     to it in each target word via RDCSS (a restricted DCAS that makes the
//     installation conditional on the operation still being UNDECIDED).
//   * Any thread that encounters a marked word helps the operation to
//     completion, so a stalled owner never blocks others (lock-freedom).
//   * The operation's outcome is decided by a single CAS on the status
//     word; phase 2 replaces the marks with new (success) or old (failure)
//     values.
//
// Descriptors are reused, not recycled (Arbel-Raviv & Brown, "Reuse, don't
// recycle", DISC 2017): each thread owns one immortal descriptor of each
// kind and reuses it for every operation under a new sequence number. A
// marked word holds (seq, slot, kind), not an address, so a stale helper's
// CAS can only fail, and a helper validates its copy of the fields against
// the sequence number before acting on it (DESIGN.md §13.4). No operation
// pins a reclamation epoch, and descriptor memory is constant.
//
// Words managed by this policy must keep bit 0 clear in all user-visible
// values (guaranteed by the dcd::dcas word encoding).
#pragma once

#include <cstdint>

#include "dcd/dcas/telemetry.hpp"
#include "dcd/dcas/word.hpp"

namespace dcd::dcas {

class McasDcas {
 public:
  static constexpr const char* kName = "mcas";
  static constexpr bool kLockFree = true;

  // Reads a word, helping (and thereby removing) any in-flight descriptor
  // it encounters. Returns a clean user value.
  static std::uint64_t load(const Word& w) noexcept;

  static void store_init(Word& w, std::uint64_t v) noexcept {
    w.raw.store(v, std::memory_order_release);
  }

  // Single-word CAS coexisting with in-flight MCAS descriptors: a marked
  // word is first helped to completion, then a raw CAS applies (a raw CAS
  // can never clobber a descriptor because the expected value is clean).
  static bool cas(Word& w, std::uint64_t oldv, std::uint64_t newv) noexcept;

  // Figure 1, first form.
  static bool dcas(Word& a, Word& b, std::uint64_t oa, std::uint64_t ob,
                   std::uint64_t na, std::uint64_t nb) noexcept;

  // Figure 1, second form. A failed MCAS does not intrinsically produce an
  // atomic view of the two words, so failure falls back to a snapshot loop:
  // read both words, then validate the pair with an identity DCAS. The loop
  // is lock-free (each failed validation implies some other operation's
  // DCAS succeeded). E4 measures the cost of algorithms that rely on this
  // stronger form.
  static bool dcas_view(Word& a, Word& b, std::uint64_t& oa,
                        std::uint64_t& ob, std::uint64_t na,
                        std::uint64_t nb) noexcept;

  // Atomic snapshot of two words (exposed for tests): loops an identity
  // DCAS until it witnesses an unchanged pair.
  static void snapshot(Word& a, Word& b, std::uint64_t& va,
                       std::uint64_t& vb) noexcept;

  // General N-word CAS (N in [1, kMaxCasnWidth]) from the same engine —
  // DCAS is casn with n == 2. Exposed to measure how emulation cost grows
  // with width (experiment E10): the paper's related work (§1.1) leans on
  // exactly this trade-off when it criticises designs that treat "the
  // two-word DCAS as if it were a three-word operation".
  static constexpr std::size_t kMaxCasnWidth = 4;
  static bool casn(Word* const* addrs, const std::uint64_t* olds,
                   const std::uint64_t* news, std::size_t n) noexcept;
};

}  // namespace dcd::dcas
