// Property-style round-trips over the word codec, ValueCodec, and the
// tagged-pool version arithmetic — the encodings pass 8 of the static
// analyzer assumes (see the [[codec.helper]] rows in
// tools/analyze/contracts.toml, whose tested_by keys point here).
//
// "Property-style" without a fuzzing dependency: a fixed splitmix64
// stream gives a deterministic sample of the payload space on top of the
// closed-form extremes (0, 1, kMaxPayload, sign boundaries, tag
// wraparound at UINT64_MAX).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/reclaim/tagged_pool.hpp"

namespace {

namespace dw = dcd::dcas;
using dcd::deque::ValueCodec;

// Deterministic 64-bit stream (Steele et al., "Fast splittable
// pseudorandom number generators") — no global RNG state, identical on
// every run and platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr int kSamples = 4096;

TEST(CodecProperty, PayloadRoundTripExtremesAndSamples) {
  std::vector<std::uint64_t> payloads = {0, 1, 2, dw::kMaxPayload - 1,
                                         dw::kMaxPayload};
  std::uint64_t s = 1;
  for (int i = 0; i < kSamples; ++i) {
    payloads.push_back(splitmix64(s) & dw::kMaxPayload);
  }
  for (std::uint64_t p : payloads) {
    const std::uint64_t w = dw::encode_payload(p);
    EXPECT_EQ(dw::decode_payload(w), p);
    // Payload words keep the reserved low bits clear: they can never be
    // mistaken for a descriptor, a deleted pointer, or a special.
    EXPECT_EQ(w & (dw::kDescriptorBit | dw::kDeletedBit | dw::kSpecialBit),
              0u);
    EXPECT_FALSE(dw::is_descriptor(w));
    EXPECT_FALSE(dw::is_special(w));
    EXPECT_FALSE(dw::deleted_of(w));
  }
}

TEST(CodecProperty, PointerWordRoundTrip) {
  alignas(64) static std::uint64_t slab[kSamples];
  for (int i = 0; i < kSamples; ++i) {
    auto* p = &slab[i];
    for (bool deleted : {false, true}) {
      const std::uint64_t w = dw::encode_pointer(p, deleted);
      EXPECT_EQ(dw::pointer_of<std::uint64_t>(w), p);
      EXPECT_EQ(dw::deleted_of(w), deleted);
      EXPECT_EQ(dw::pointer_of<std::uint64_t>(dw::clear_deleted(w)), p);
      EXPECT_FALSE(dw::deleted_of(dw::clear_deleted(w)));
    }
  }
}

TEST(CodecProperty, SentinelAndSpecialDisjointness) {
  const std::uint64_t specials[] = {dw::kNull, dw::kSentL, dw::kSentR,
                                    dw::kDummy};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    EXPECT_TRUE(dw::is_special(specials[i]));
    EXPECT_FALSE(dw::is_descriptor(specials[i]));
    EXPECT_FALSE(dw::deleted_of(specials[i]));
    for (std::size_t j = i + 1; j < std::size(specials); ++j) {
      EXPECT_NE(specials[i], specials[j]);
    }
  }
  EXPECT_TRUE(dw::is_null(dw::kNull));
  EXPECT_FALSE(dw::is_null(dw::kSentL));
}

TEST(CodecProperty, ValueCodecUnsignedExtremes) {
  using C = ValueCodec<std::uint64_t>;
  std::vector<std::uint64_t> vals = {0, 1, dw::kMaxPayload - 1,
                                     dw::kMaxPayload};
  std::uint64_t s = 3;
  for (int i = 0; i < kSamples; ++i) {
    vals.push_back(splitmix64(s) & dw::kMaxPayload);
  }
  for (std::uint64_t v : vals) {
    const std::uint64_t w = C::encode(v);
    EXPECT_EQ(C::decode(w), v);
    EXPECT_FALSE(dw::is_special(w));
  }
}

TEST(CodecProperty, ValueCodecSignedZigZagExtremes) {
  using C = ValueCodec<std::int64_t>;
  // Zig-zag headroom: |v| <= 2^60 fits the 61-bit payload.
  const std::int64_t lo = -(1ll << 60);
  const std::int64_t hi = (1ll << 60) - 1;
  std::vector<std::int64_t> vals = {0, 1, -1, 2, -2, hi, hi - 1, lo, lo + 1};
  std::uint64_t s = 4;
  for (int i = 0; i < kSamples; ++i) {
    // Sample the full legal range by zig-zag-decoding a payload sample.
    const std::uint64_t zz = splitmix64(s) & dw::kMaxPayload;
    vals.push_back(static_cast<std::int64_t>(zz >> 1) ^
                   -static_cast<std::int64_t>(zz & 1));
  }
  for (std::int64_t v : vals) {
    const std::uint64_t w = C::encode(v);
    EXPECT_EQ(C::decode(w), v);
    // Negative values map to odd payloads, positives to even: the order
    // embedding is injective either way, so distinct values cannot alias.
    EXPECT_EQ(w & (dw::kDescriptorBit | dw::kDeletedBit | dw::kSpecialBit),
              0u);
  }
}

TEST(CodecProperty, ValueCodecPointerRoundTrip) {
  alignas(64) static int slab[kSamples * 2];
  using C = ValueCodec<int*>;
  for (int i = 0; i < kSamples; ++i) {
    int* p = &slab[i * 2];  // 8-aligned: two ints per slot
    EXPECT_EQ(C::decode(C::encode(p)), p);
  }
  EXPECT_EQ(C::decode(C::encode(static_cast<int*>(nullptr))), nullptr);
}

#if defined(__x86_64__)
// The tagged pool's ABA defense is `tag + 1` on every head swing, with
// the tag stored as the `hi` half of a cmpxchg16b pair. Unsigned
// wraparound at UINT64_MAX is part of the contract: after the wrap the
// tag is 0 again, and a reader holding the pre-wrap tag must fail its
// DCAS exactly as for any other stale tag.
TEST(CodecProperty, TaggedPairVersionWraparound) {
  if (!dw::Cmpxchg16bDcas::available()) GTEST_SKIP();
  dw::AdjacentPair pair;
  pair.lo.store(0x1000, std::memory_order_relaxed);
  pair.hi.store(~0ull, std::memory_order_relaxed);  // tag at UINT64_MAX

  std::uint64_t head = 0, tag = 0;
  dw::Cmpxchg16bDcas::read(pair, head, tag);
  EXPECT_EQ(head, 0x1000u);
  EXPECT_EQ(tag, ~0ull);

  // The swing the pool's allocate() performs: {head, tag} -> {next, tag+1}.
  EXPECT_TRUE(dw::Cmpxchg16bDcas::dcas(pair, head, tag, 0x2000, tag + 1));
  dw::Cmpxchg16bDcas::read(pair, head, tag);
  EXPECT_EQ(head, 0x2000u);
  EXPECT_EQ(tag, 0u);  // wrapped, not saturated

  // A stale reader still holding the pre-wrap tag loses.
  EXPECT_FALSE(dw::Cmpxchg16bDcas::dcas(pair, 0x2000, ~0ull, 0x3000, 0));
  // The post-wrap tag sequence continues normally.
  EXPECT_TRUE(dw::Cmpxchg16bDcas::dcas(pair, 0x2000, 0, 0x3000, 1));
}
#endif  // defined(__x86_64__)

// Recycling through the real pool: every allocate/deallocate advances the
// version, and recycled storage is handed back usable regardless of how
// often a slot has cycled.
TEST(CodecProperty, TaggedNodePoolRecycleSweep) {
  constexpr std::size_t kCap = 8;
  dcd::reclaim::TaggedNodePool pool(sizeof(std::uint64_t), kCap);
  for (int round = 0; round < 1000; ++round) {
    std::vector<void*> held;
    for (std::size_t i = 0; i < kCap; ++i) {
      void* p = pool.allocate();
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(pool.owns(p));
      *static_cast<std::uint64_t*>(p) = round;  // storage must be writable
      held.push_back(p);
    }
    EXPECT_EQ(pool.allocate(), nullptr);  // exhausted exactly at capacity
    for (void* p : held) pool.deallocate(p);
  }
}

}  // namespace
