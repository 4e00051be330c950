// Compile-time contract layer for the DCAS substrate.
//
// Two kinds of static guarantee live here, both consumed by static_asserts
// at every instantiation site (the deques, the fault-injection wrapper, the
// test fixtures):
//
//   1. the DcasPolicy concept — the exact surface the paper's Figure 1
//      assumes (both DCAS forms) plus the managed load/initial-store through
//      which all shared-word traffic flows;
//   2. word-layout audits — the reserved-bit encoding of word.hpp is the
//      repo's substitute for the paper's typed `val` set, and every
//      algorithm's correctness argument leans on it. The asserts below pin
//      the layout so a change that would silently break tag-bit headroom,
//      special-value disjointness or payload round-tripping fails to
//      compile instead of failing under some scheduler interleaving.
//
// This header is include-light on purpose (word.hpp only): chaos.hpp and
// the policy headers can constrain their templates without pulling in the
// full policy list from policies.hpp.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "dcd/dcas/word.hpp"

namespace dcd::dcas {

// A DcasPolicy supplies the two DCAS forms of Figure 1 plus the managed
// load/initial-store. The deque templates are parameterised on a policy so
// every algorithm runs unchanged over each emulation — the repo's
// substitute for "running on DCAS hardware".
template <typename P>
concept DcasPolicy = requires(Word& w, const Word& cw, std::uint64_t v,
                              std::uint64_t& vr) {
  { P::kName } -> std::convertible_to<const char*>;
  { P::kLockFree } -> std::convertible_to<bool>;
  { P::load(cw) } -> std::same_as<std::uint64_t>;
  { P::store_init(w, v) };
  { P::cas(w, v, v) } -> std::same_as<bool>;
  { P::dcas(w, w, v, v, v, v) } -> std::same_as<bool>;
  { P::dcas_view(w, w, vr, vr, v, v) } -> std::same_as<bool>;
};

// --- dropped-check seam (model-checker mutation) --------------------------
//
// The two-null splice's adjacency check (DESIGN.md §2) compares pointers
// the deque has already loaded, so no corrupted policy call can remove
// it. A policy may declare `static bool skips_two_null_adjacency()` to
// drop it; wrappers are searched down their InnerPolicy chain.
// mc::MutantDcasT declares it, so the model checker can show that a
// scenario still fails without the check. No production policy declares
// it: the function is then constant false and the check compiles
// unchanged.
template <typename P>
bool skips_two_null_adjacency() noexcept {
  if constexpr (requires {
                  { P::skips_two_null_adjacency() } -> std::same_as<bool>;
                }) {
    return P::skips_two_null_adjacency();
  } else if constexpr (requires { typename P::InnerPolicy; }) {
    return skips_two_null_adjacency<typename P::InnerPolicy>();
  } else {
    return false;
  }
}

// --- word-layout audit ----------------------------------------------------

// The shared word is exactly one lock-free 64-bit atomic; every policy
// (including the inline-asm cmpxchg16b path) relies on its object
// representation being the bare value.
static_assert(sizeof(Word) == 8 && alignof(Word) == 8,
              "Word must be a bare 64-bit cell");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared words must be natively atomic");
static_assert(std::is_trivially_copyable_v<std::uint64_t> &&
                  std::is_trivially_destructible_v<std::atomic<std::uint64_t>>,
              "value words must stay trivially copyable (type-stable pools "
              "recycle their storage without re-construction)");

// The three reserved bits are distinct and together span exactly the bits
// below the payload — no gap a rogue encoding could hide in, no overlap.
static_assert((kDescriptorBit & kDeletedBit) == 0 &&
                  (kDescriptorBit & kSpecialBit) == 0 &&
                  (kDeletedBit & kSpecialBit) == 0,
              "reserved bits must be disjoint");
static_assert((kDescriptorBit | kDeletedBit | kSpecialBit) ==
                  (1ull << kPayloadShift) - 1,
              "reserved bits must fill the sub-payload space exactly");

// Tag-bit headroom: payloads are 64 - kPayloadShift bits, and the encode /
// decode pair round-trips the full range without touching reserved bits.
static_assert(kMaxPayload == (~0ull >> kPayloadShift),
              "kMaxPayload must match the payload width");
static_assert(decode_payload(encode_payload(kMaxPayload)) == kMaxPayload &&
                  decode_payload(encode_payload(0)) == 0,
              "payload encode/decode must round-trip at the extremes");
static_assert((encode_payload(kMaxPayload) &
               (kDescriptorBit | kDeletedBit | kSpecialBit)) == 0,
              "encoded payloads must keep every reserved bit clear");

// The paper's distinguished values are mutually distinct, carry the special
// flag, and can never be mistaken for in-flight descriptors or deleted
// pointers.
static_assert(kNull != kSentL && kNull != kSentR && kSentL != kSentR &&
                  kNull != kDummy && kSentL != kDummy && kSentR != kDummy,
              "distinguished values must be distinct");
static_assert(is_special(kNull) && is_special(kSentL) && is_special(kSentR) &&
                  is_special(kDummy),
              "distinguished values must carry the special flag");
static_assert(!is_descriptor(kNull) && !is_descriptor(kSentL) &&
                  !is_descriptor(kSentR) && !is_descriptor(kDummy),
              "distinguished values must not look like MCAS descriptors");
static_assert(!deleted_of(kNull) && !deleted_of(kSentL) &&
                  !deleted_of(kSentR) && !deleted_of(kDummy),
              "distinguished values must not carry the deleted bit");

}  // namespace dcd::dcas
