// Lock-Free Reference Counting (LFRC) — the authors' GC-elimination
// methodology ("Lock-free reference counting", Detlefs, Martin, Moir,
// Steele, PODC 2001 — reference [12] of the deque paper, which states the
// deque algorithms "can be transformed into equivalent ones that do not
// depend on garbage collection" with it).
//
// The key primitive is LFRC's pointer *load*: DCAS atomically verifies the
// shared pointer slot still holds the object while incrementing the
// object's count, closing the classic "read pointer, then increment a
// possibly-freed object's count" race — this is one of the cleanest
// demonstrations of what DCAS buys over CAS, and exactly on-theme for the
// paper.
//
// Counting discipline (one "unit" per reference):
//   * every shared pointer slot that stores the object holds one unit;
//   * every live local reference (a raw pointer returned by load/copy and
//     not yet consumed by store_slot/cas/destroy) holds one unit;
//   * when the count reaches zero the object's release hook runs (dropping
//     units on its own outgoing pointer slots, possibly recursively) and
//     the object is freed.
//
// Objects embed the count as a `dcas::Word rc;` member and provide
// `lfrc_dispose()`, which drops units on outgoing slots and releases the
// storage. With TaggedNodePool storage, rc must not be the first word:
// the pool keeps a free node's list link there, and a stale load's DCAS
// on rc (an in-flight MCAS descriptor, say) must never land in that link.
//
// Type-stability requirement (as in the original paper): load() may read a
// just-freed object's count word before its validating DCAS fails, so
// LFRC-managed storage must stay mapped and type-homogeneous for the
// manager's lifetime — never handed back to the general heap while shared
// slots may still be probed. LfrcStack satisfies this with a
// TaggedNodePool; ad-hoc objects must arrange the same (see the tests).
#pragma once

#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/reclaim/concepts.hpp"
#include "dcd/reclaim/tagged_pool.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/sanitizer.hpp"

namespace dcd::reclaim {

// T requirements:
//   dcas::Word rc;        // count, payload-encoded integer; not at offset
//                         // 0 when the storage comes from TaggedNodePool
//   void lfrc_dispose();  // drop outgoing refs, then free own storage
//   8-aligned allocation (pointers stored raw in slots).
template <typename T, dcas::DcasPolicy P = dcas::DefaultDcas>
class Lfrc {
  static_assert(LfrcManaged<T>,
                "LFRC-managed objects need a `dcas::Word rc` count word and "
                "an lfrc_dispose() hook (see dcd/reclaim/concepts.hpp)");

 public:
  static std::uint64_t encode(T* p) noexcept {
    return reinterpret_cast<std::uint64_t>(p);
  }
  static T* decode(std::uint64_t w) noexcept {
    return reinterpret_cast<T*>(w & ~0x7ull);
  }

  // Allocates the initial unit: a freshly created object starts with
  // count 1, owned by the creating local reference. Recycled storage may
  // still carry a stale load's in-flight DCAS on rc; a plain store would
  // overwrite it and let that DCAS "succeed" without its increment, so
  // the count is installed with a CAS from whatever the policy reads.
  static void init_count(T* p) noexcept {
    for (;;) {
      const std::uint64_t c = P::load(p->rc);
      if (P::cas(p->rc, c, dcas::encode_payload(1))) return;
    }
  }

  static std::int64_t count(T* p) noexcept {
    return static_cast<std::int64_t>(dcas::decode_payload(P::load(p->rc)));
  }

  // LFRCLoad: read `slot` and acquire a unit on the target atomically.
  // Returns nullptr (no unit) if the slot is null.
  static T* load(dcas::Word& slot) noexcept {
    for (;;) {
      const std::uint64_t w = P::load(slot);
      T* p = decode(w);
      if (p == nullptr) return nullptr;
      const std::uint64_t c = P::load(p->rc);
      // The DCAS is the LFRC trick: the increment lands only while the
      // slot still references p, so a concurrent final release cannot have
      // freed p before our unit exists.
      if (P::dcas(slot, p->rc, w, c,
                  w, dcas::encode_payload(dcas::decode_payload(c) + 1))) {
        return p;
      }
    }
  }

  // Duplicate a local reference (+1 unit). p may be nullptr.
  static T* copy(T* p) noexcept {
    if (p != nullptr) add(p, +1);
    return p;
  }

  // Drop a local reference (-1 unit); disposes at zero. p may be nullptr.
  static void destroy(T* p) {
    if (p == nullptr) return;
    if (add(p, -1) == 0) {
      p->lfrc_dispose();  // drops units on outgoing slots + frees storage
    }
  }

  // Store into a *private* slot (no concurrent access): the slot's old
  // reference is dropped, the new value's unit is transferred from the
  // caller's local reference (which is consumed).
  static void store_private(dcas::Word& slot, T* p) {
    T* old = decode(P::load(slot));
    P::store_init(slot, encode(p));
    destroy(old);
  }

  // LFRCCAS on a shared slot. On success the slot's unit moves from
  // `expected` to `desired` (the slot drops one unit on expected, gains
  // one on desired). Caller-held local references are NOT consumed.
  static bool cas(dcas::Word& slot, T* expected, T* desired) {
    if (desired != nullptr) add(desired, +1);  // the slot's prospective unit
    if (P::cas(slot, encode(expected), encode(desired))) {
      destroy(expected);  // the slot's old unit
      return true;
    }
    if (desired != nullptr) destroy(desired);  // roll back
    return false;
  }

 private:
  // Count arithmetic via single-word CAS; returns the new count.
  static std::int64_t add(T* p, std::int64_t delta) noexcept {
    for (;;) {
      const std::uint64_t c = P::load(p->rc);
      const auto cur = static_cast<std::int64_t>(dcas::decode_payload(c));
      DCD_ASSERT(cur > 0 || delta > 0);
      const auto next = cur + delta;
      DCD_ASSERT(next >= 0);
      if (P::cas(p->rc, c,
                 dcas::encode_payload(static_cast<std::uint64_t>(next)))) {
        return next;
      }
    }
  }
};

// A lock-free Treiber stack whose nodes are reclaimed purely by LFRC — no
// EBR, no grace periods. Demonstrates the full methodology of [12] end to
// end (load's DCAS, cas's unit transfer, recursive release through the
// next pointers). Node storage lives in a TaggedNodePool for the
// type-stability LFRC requires.
template <typename T, dcas::DcasPolicy P = dcas::DefaultDcas>
class LfrcStack {
 public:
  struct Node {
    void* pool_link;  // the pool's free-list link while the node is free
    dcas::Word rc;
    dcas::Word next;  // LFRC-managed slot
    LfrcStack* owner;
    T value;

    // Nodes are never constructed or destroyed: recycled type-stable
    // storage is probed by stale LFRC readers, and even a C++20 atomic's
    // constructor is a non-atomic-looking write to them. Fields are
    // (re)initialised with atomic stores in push(); hence the
    // trivially-copyable requirement on T.
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

    void lfrc_dispose() {
      // Drop the unit our next slot holds (deep chains would recurse;
      // the stack destructor drains iteratively instead).
      Node* n = Lfrc<Node, P>::decode(P::load(next));
      P::store_init(next, 0);
      owner->pool_.deallocate(this);
      Lfrc<Node, P>::destroy(n);
    }
  };
  using R = Lfrc<Node, P>;

  explicit LfrcStack(std::size_t max_nodes = 1 << 16)
      : pool_(sizeof(Node), max_nodes) {
    P::store_init(top_, 0);
  }

  ~LfrcStack() {
    // Drain iteratively: dropping the head's unit directly would release
    // the whole chain through recursive lfrc_release calls, which on a
    // long stack overflows the call stack.
    T tmp;
    while (pop(&tmp)) {
    }
  }

  LfrcStack(const LfrcStack&) = delete;
  LfrcStack& operator=(const LfrcStack&) = delete;

  // Returns false when the node pool is exhausted.
  // DCD_GUARD_EXEMPT(node is thread-private and holds a local LFRC unit until the publishing CAS)
  bool push(T v) {
    void* raw = pool_.allocate();
    if (raw == nullptr) return false;
    Node* n = static_cast<Node*>(raw);  // storage reuse, no construction
    R::init_count(n);                   // local unit (atomic store)
    P::store_init(n->next, 0);
    n->owner = this;
    n->value = std::move(v);
    for (;;) {
      Node* t = R::load(top_);          // local unit on current top
      R::store_private(n->next, t);     // transfer it into n->next
      // DCD_PUBLISHES(allocator-internal, rc+next+owner+value)
      if (R::cas(top_, t, n)) {         // slot: -t +n
        R::destroy(n);                  // drop our local unit on n
        return true;
      }
      // retry: n->next still holds a (stale) unit; the next
      // store_private drops it.
    }
  }

  bool pop(T* out) {
    for (;;) {
      Node* t = R::load(top_);  // local unit
      if (t == nullptr) return false;
      Node* nx = R::load(t->next);  // local unit (may be null)
      if (R::cas(top_, t, nx)) {    // slot: -t +nx
        *out = t->value;
        R::destroy(nx);  // local unit
        R::destroy(t);   // local unit; node frees when its last unit drops
        return true;
      }
      R::destroy(nx);
      R::destroy(t);
    }
  }

  bool empty() const {
    return P::load(const_cast<dcas::Word&>(top_)) == 0;
  }

 private:
  dcas::Word top_;
  TaggedNodePool pool_;
};

}  // namespace dcd::reclaim
