// The shared-word representation every DCAS policy operates on.
//
// All memory the deque algorithms synchronise through is expressed as
// 64-bit Words with the low three bits reserved:
//
//   bit 0  descriptor mark   — set only by the lock-free MCAS engine while
//                              an operation is in flight; user-visible
//                              values always have it clear
//   bit 1  second mark /     — inside a marked word, distinguishes RDCSS
//          "deleted" bit       from MCAS descriptors; in a clean pointer
//                              word it is the paper's `deleted` bit (§4)
//   bit 2  special flag      — the word holds one of the paper's three
//                              distinguished values (null / sentL / sentR)
//                              instead of a user payload
//
// User payloads are therefore 61 bits wide and stored shifted left by 3.
// Node addresses come from a 64-aligned pool, so pointer words store the
// address directly (its low bits are naturally zero) plus the deleted bit.
#pragma once

#include <atomic>
#include <cstdint>

#include "dcd/util/assert.hpp"

namespace dcd::dcas {

// A DCAS-managed shared word. Plain loads/stores must go through the
// policy (Policy::load / Policy::store_init) so that the MCAS engine can
// strip in-flight descriptors.
class Word {
 public:
  // NOTE: construction writes (C++20 atomics value-initialise), so
  // recycled type-stable storage that stale readers may still probe (the
  // LFRC pattern) must NOT be re-constructed — reuse the storage and
  // re-initialise through Policy::store_init instead (see LfrcStack).
  Word() noexcept : raw(0) {}
  explicit Word(std::uint64_t v) noexcept : raw(v) {}

  Word(const Word&) = delete;
  Word& operator=(const Word&) = delete;

  std::atomic<std::uint64_t> raw;
};

static_assert(sizeof(Word) == 8);

// --- reserved-bit layout -------------------------------------------------

inline constexpr std::uint64_t kDescriptorBit = 1ull << 0;
inline constexpr std::uint64_t kDeletedBit = 1ull << 1;
inline constexpr std::uint64_t kSpecialBit = 1ull << 2;
inline constexpr unsigned kPayloadShift = 3;

// The paper's three distinguished values (§2.2, §4).
inline constexpr std::uint64_t kNull = kSpecialBit | (0ull << kPayloadShift);
inline constexpr std::uint64_t kSentL = kSpecialBit | (1ull << kPayloadShift);
inline constexpr std::uint64_t kSentR = kSpecialBit | (2ull << kPayloadShift);
// Marks a "delete-bit" dummy record (footnote 4 / Figure 10): a node whose
// value word holds kDummy is not a list element but an indirection standing
// in for a set deleted bit.
inline constexpr std::uint64_t kDummy = kSpecialBit | (3ull << kPayloadShift);

constexpr bool is_descriptor(std::uint64_t v) noexcept {
  return (v & kDescriptorBit) != 0;
}
constexpr bool is_special(std::uint64_t v) noexcept {
  return !is_descriptor(v) && (v & kSpecialBit) != 0;
}
constexpr bool is_null(std::uint64_t v) noexcept { return v == kNull; }

// Encode/decode a 61-bit payload.
constexpr std::uint64_t encode_payload(std::uint64_t payload) noexcept {
  return payload << kPayloadShift;
}
constexpr std::uint64_t decode_payload(std::uint64_t word) noexcept {
  return word >> kPayloadShift;
}
inline constexpr std::uint64_t kMaxPayload = (1ull << 61) - 1;

// --- pointer words (list deque, §4) ---------------------------------------

// Pointer words store a 64-aligned node address plus the deleted bit.
template <typename NodeT>
constexpr std::uint64_t encode_pointer(NodeT* p, bool deleted) noexcept {
  const auto bits = reinterpret_cast<std::uint64_t>(p);
  return bits | (deleted ? kDeletedBit : 0ull);
}

template <typename NodeT>
NodeT* pointer_of(std::uint64_t word) noexcept {
  return reinterpret_cast<NodeT*>(word & ~(kDescriptorBit | kDeletedBit));
}

constexpr bool deleted_of(std::uint64_t word) noexcept {
  return (word & kDeletedBit) != 0;
}

// Strips the deleted bit from a pointer word (leaving the address and any
// other reserved bits untouched). The mutation-injection layer of the model
// checker uses this to express "this DCAS forgot to set the deleted bit"
// without doing reserved-bit arithmetic outside this header.
constexpr std::uint64_t clear_deleted(std::uint64_t word) noexcept {
  return word & ~kDeletedBit;
}

}  // namespace dcd::dcas
