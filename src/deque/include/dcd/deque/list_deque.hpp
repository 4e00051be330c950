// The linked-list-based unbounded deque of §4
// (Figures 11, 13, 17 and their left-side mirrors 32, 33, 34).
//
// State: a doubly-linked list of nodes between two fixed sentinels SL and
// SR. A sentinel's inward pointer word carries a `deleted` bit in its low
// bits (single-word DCAS-able together with the pointer). Pops are split:
//
//   1. logical delete — one DCAS over {sentinel pointer word, node value}:
//      set the deleted bit and write null into the value;
//   2. physical delete — deleteRight/deleteLeft splice the null node out
//      and clear the bit. Any operation on that side that finds the bit set
//      performs the physical delete first, so a suspended popper never
//      blocks others (the paper's non-blocking argument, §5.2).
//
// The subtle case is an empty deque holding two logically-deleted nodes
// being physically deleted from both ends at once (Figure 16): both
// deletes' DCASes overlap on a sentinel word and exactly one wins.
//
// Substitutions vs the paper: GC is replaced by a pluggable reclamation
// policy (EBR by default — it also supplies the ABA-freedom on node
// addresses that GC gave for free), and New() by a fixed node pool whose
// exhaustion surfaces as push → "full" (footnote 3).
//
// Paper errata corrected here (see DESIGN.md §2): Figure 32 line 4 reads
// through oldL instead of oldR; Figure 33 line 10 points the new node's L
// at SR instead of SL.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/deque/elimination.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/reclaim/concepts.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/reclaim/node_pool.hpp"
#include "dcd/reclaim/policies.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"

namespace dcd::deque {

// Pool defaults to the per-thread magazine layer (DESIGN.md §13): the
// shared-free-list serialization the paper never had (it assumed GC) would
// otherwise dominate before the DCAS contention the paper reasons about.
// Opt (NTTP, like ArrayDeque's ArrayOptions) gates the elimination layer.
template <typename T, dcas::DcasPolicy Dcas = dcas::DefaultDcas,
          reclaim::ReclaimPolicy Reclaim = reclaim::EbrReclaim,
          reclaim::PoolPolicy Pool = reclaim::MagazinePool,
          ListOptions Opt = ListOptions{}>
class ListDeque {
  static_assert(dcas::DcasPolicy<Dcas>,
                "ListDeque requires a policy providing both Figure 1 DCAS "
                "forms (see dcd/dcas/concepts.hpp)");
  static_assert(reclaim::ReclaimPolicy<Reclaim>,
                "ListDeque requires a Guard/retire/collect reclamation "
                "policy (see dcd/reclaim/concepts.hpp)");
  static_assert(std::is_trivially_copyable_v<T>,
                "values are stored as raw 61-bit word payloads");
  static_assert(!Opt.elimination || Opt.elim_slots >= 1,
                "an enabled elimination layer needs at least one slot");

 public:
  using value_type = T;
  using Codec = ValueCodec<T>;
  static constexpr ListOptions kOptions = Opt;

  // `max_nodes` bounds live + not-yet-reclaimed nodes (the paper's deque is
  // unbounded given an unbounded allocator; a fixed pool makes allocation
  // failure — and thus the "full" return of footnote 3 — testable).
  explicit ListDeque(std::size_t max_nodes = 1 << 16)
      : pool_(sizeof(Node), max_nodes) {
    Dcas::store_init(sl_.value, dcas::kSentL);
    Dcas::store_init(sr_.value, dcas::kSentR);
    Dcas::store_init(sl_.right, ptr(&sr_, false));
    Dcas::store_init(sr_.left, ptr(&sl_, false));
    // The outward pointers are never used (§4); keep them null-ish.
    Dcas::store_init(sl_.left, 0);
    Dcas::store_init(sr_.right, 0);
  }

  // DCD_GUARD_EXEMPT(single-threaded teardown; no concurrent frees exist)
  ~ListDeque() {
    // Single-threaded teardown: return every non-sentinel node still in the
    // chain to the pool, then let the reclaimer's destructor force-drain
    // what is in limbo (member destruction order handles the rest).
    Node* n = dcas::pointer_of<Node>(sl_.right.raw.load(std::memory_order_acquire));
    while (n != &sr_) {
      Node* next = dcas::pointer_of<Node>(n->right.raw.load(std::memory_order_acquire));
      pool_.deallocate(n);
      n = next;
    }
  }

  ListDeque(const ListDeque&) = delete;
  ListDeque& operator=(const ListDeque&) = delete;

  // Figure 13; the body is push_right_pinned.
  PushResult push_right(T v) {
    return push_past_stalls(
        [&](bool& stalled) { return push_right_pinned(v, stalled); });
  }

  // Figure 33; the body is push_left_pinned.
  PushResult push_left(T v) {
    return push_past_stalls(
        [&](bool& stalled) { return push_left_pinned(v, stalled); });
  }

 private:
  // Figure 13, as one pinned attempt; push_past_stalls (types.hpp) retries
  // it unpinned while freed nodes wait in limbo.
  PushResult push_right_pinned(T v, bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    Node* node = allocate_node(&stalled);               // line 2
    if (node == nullptr) return PushResult::kFull;      // line 3
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);  // line 6
      if (dcas::deleted_of(old_l)) {                     // line 7
        delete_right();                                  // line 8
        continue;
      }
      // Lines 10–13: initialise the private node. No other thread can see
      // it until the DCAS below publishes it (paper footnote 7).
      Dcas::store_init(node->right, ptr(&sr_, false));
      Dcas::store_init(node->left, old_l);
      Dcas::store_init(node->value, Codec::encode(v));
      Node* left_neighbor = dcas::pointer_of<Node>(old_l);
      const std::uint64_t old_lr = ptr(&sr_, false);     // lines 14-15
      // DCD_SYNC(dcas.any)
      // DCD_LP(Fig13:16-17, dcas.any, inv=list.reachable+list.backlinks+list.value_payload, "SR->L and neighbor->R swing to the new node in one step, publishing it")
      // DCD_PUBLISHES(dcas.any, right+left+value)
      if (Dcas::dcas(sr_.left, left_neighbor->right, old_l, old_lr,
                     ptr(node, false), ptr(node, false))) {  // lines 16-17
        return PushResult::kOkay;                        // line 18
      }
      if constexpr (Opt.elimination) {
        if (elim_r_.offer(Codec::encode(v), Opt.elim_slots, Opt.elim_polls)) {
          // A same-end popper consumed the value (lin. point: its take
          // CAS). The private node was never published; it still must go
          // through EBR, not straight back to the free list — the
          // pop-pop-push ABA note in list_deque_dummy.hpp applies as-is.
          reclaimer_.retire(node, pool_);
          return PushResult::kOkay;
        }
      }
      backoff.pause();
    }
  }

  // Figure 33 (mirror; erratum: the new node's L points at SL).
  PushResult push_left_pinned(T v, bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    Node* node = allocate_node(&stalled);
    if (node == nullptr) return PushResult::kFull;
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      if (dcas::deleted_of(old_r)) {
        delete_left();
        continue;
      }
      Dcas::store_init(node->left, ptr(&sl_, false));
      Dcas::store_init(node->right, old_r);
      Dcas::store_init(node->value, Codec::encode(v));
      Node* right_neighbor = dcas::pointer_of<Node>(old_r);
      const std::uint64_t old_rl = ptr(&sl_, false);
      // DCD_SYNC(dcas.any)
      // DCD_LP(Fig33:16-17, dcas.any, inv=list.reachable+list.backlinks+list.value_payload, "SL->R and neighbor->L swing to the new node in one step, publishing it")
      // DCD_PUBLISHES(dcas.any, left+right+value)
      if (Dcas::dcas(sl_.right, right_neighbor->left, old_r, old_rl,
                     ptr(node, false), ptr(node, false))) {
        return PushResult::kOkay;
      }
      if constexpr (Opt.elimination) {
        if (elim_l_.offer(Codec::encode(v), Opt.elim_slots, Opt.elim_polls)) {
          reclaimer_.retire(node, pool_);
          return PushResult::kOkay;
        }
      }
      backoff.pause();
    }
  }

 public:
  // Figure 11.
  std::optional<T> pop_right() {
    typename Reclaim::Guard guard(reclaimer_);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);   // line 3
      Node* node = dcas::pointer_of<Node>(old_l);
      const std::uint64_t v = Dcas::load(node->value);    // line 4
      if (v == dcas::kSentL) return std::nullopt;         // line 5
      if (dcas::deleted_of(old_l)) {                      // line 6
        delete_right();                                   // line 7
      } else if (dcas::is_null(v)) {                      // line 8
        // The node was logically deleted by a popLeft; if the snapshot
        // {pointer word, value} is still intact the deque is empty.
        // DCD_SYNC(empty.confirm)
        // DCD_LP(Fig11:9-11, empty.confirm, inv=list.sentinel_values+list.null_licensing, "identity DCAS confirms the snapshot {SR->L, null value} intact: deque observed empty")
        if (Dcas::dcas(sr_.left, node->value, old_l, v, old_l, v)) {
          return std::nullopt;                            // lines 9-11
        }
      } else {
        const std::uint64_t new_l = ptr(node, true);      // lines 14-15
        // DCD_SYNC(pop.logical_delete)
        // DCD_LP(Fig11:16-17, pop.logical_delete, inv=list.interior_deleted+list.null_licensing+list.value_payload, "sets SR->L's deleted bit and nulls the value, claiming it; splice is deferred to deleteRight")
        if (Dcas::dcas(sr_.left, node->value, old_l, v, new_l,
                       dcas::kNull)) {                    // lines 16-17
          return Codec::decode(v);                        // line 18
        }
      }
      if constexpr (Opt.elimination) {
        // Retry path only: exchange with a same-end pusher also in
        // backoff. Both ops linearize at this take CAS (DESIGN.md §13).
        std::uint64_t taken = 0;
        if (elim_r_.take(Opt.elim_slots, &taken)) {
          return Codec::decode(taken);
        }
      }
      backoff.pause();
    }
  }

  // Figure 32 (mirror; erratum: line 4 dereferences oldR).
  std::optional<T> pop_left() {
    typename Reclaim::Guard guard(reclaimer_);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      Node* node = dcas::pointer_of<Node>(old_r);
      const std::uint64_t v = Dcas::load(node->value);
      if (v == dcas::kSentR) return std::nullopt;
      if (dcas::deleted_of(old_r)) {
        delete_left();
      } else if (dcas::is_null(v)) {
        // DCD_SYNC(empty.confirm)
        // DCD_LP(Fig32:9-11, empty.confirm, inv=list.sentinel_values+list.null_licensing, "identity DCAS confirms the snapshot {SL->R, null value} intact: deque observed empty")
        if (Dcas::dcas(sl_.right, node->value, old_r, v, old_r, v)) {
          return std::nullopt;
        }
      } else {
        const std::uint64_t new_r = ptr(node, true);
        // DCD_SYNC(pop.logical_delete)
        // DCD_LP(Fig32:16-17, pop.logical_delete, inv=list.interior_deleted+list.null_licensing+list.value_payload, "sets SL->R's deleted bit and nulls the value, claiming it; splice is deferred to deleteLeft")
        if (Dcas::dcas(sl_.right, node->value, old_r, v, new_r,
                       dcas::kNull)) {
          return Codec::decode(v);
        }
      }
      if constexpr (Opt.elimination) {
        std::uint64_t taken = 0;
        if (elim_l_.take(Opt.elim_slots, &taken)) {
          return Codec::decode(taken);
        }
      }
      backoff.pause();
    }
  }

  // --- quiescent inspection (tests only; not linearizable) ----------------
  //
  // These walks (and the teardown walk above) bypass the policy layer on
  // purpose — a quiescent structure holds no in-flight descriptors to
  // strip. Acquire suffices: it synchronises with the releasing DCAS of
  // whatever operation last touched each word, and none of these paths
  // publish anything.

  // Values currently reachable left→right, skipping logically-deleted
  // nodes. Exact only while no operation is in flight.
  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  std::size_t size_unsynchronized() const {
    std::size_t count = 0;
    const Node* n = dcas::pointer_of<Node>(sl_.right.raw.load(std::memory_order_acquire));
    while (n != &sr_) {
      if (!dcas::is_null(n->value.raw.load(std::memory_order_acquire))) ++count;
      n = dcas::pointer_of<Node>(n->right.raw.load(std::memory_order_acquire));
    }
    return count;
  }

  // Figures 24/25's RepInv, evaluated on a quiescent deque: sentinel values
  // fixed, the chain doubly linked and acyclic, deleted bits only on the
  // sentinels' inward words, and null values exactly where a set bit
  // licenses them.
  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  bool check_rep_inv_unsynchronized() const {
    if (sl_.value.raw.load(std::memory_order_acquire) != dcas::kSentL) return false;
    if (sr_.value.raw.load(std::memory_order_acquire) != dcas::kSentR) return false;
    std::vector<const Node*> chain;
    const Node* n = dcas::pointer_of<const Node>(sl_.right.raw.load(std::memory_order_acquire));
    std::size_t bound = pool_.capacity() + 2;
    while (n != &sr_) {
      if (n == nullptr || n == &sl_ || chain.size() > bound) return false;
      chain.push_back(n);
      n = dcas::pointer_of<const Node>(n->right.raw.load(std::memory_order_acquire));
    }
    const Node* prev = &sl_;
    for (const Node* c : chain) {
      const std::uint64_t lw = c->left.raw.load(std::memory_order_acquire);
      if (dcas::pointer_of<const Node>(lw) != prev || dcas::deleted_of(lw)) {
        return false;
      }
      if (dcas::deleted_of(c->right.raw.load(std::memory_order_acquire))) return false;
      prev = c;
    }
    if (dcas::pointer_of<const Node>(sr_.left.raw.load(std::memory_order_acquire)) != prev) {
      return false;
    }
    const bool rdel = right_deleted_bit_unsynchronized();
    const bool ldel = left_deleted_bit_unsynchronized();
    if (rdel && (chain.empty() ||
                 !dcas::is_null(chain.back()->value.raw.load(std::memory_order_acquire)))) {
      return false;
    }
    if (ldel && (chain.empty() ||
                 !dcas::is_null(chain.front()->value.raw.load(std::memory_order_acquire)))) {
      return false;
    }
    if (rdel && ldel && chain.size() < 2) return false;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const bool licensed =
          (i == 0 && ldel) || (i + 1 == chain.size() && rdel);
      if (dcas::is_null(chain[i]->value.raw.load(std::memory_order_acquire)) && !licensed) {
        return false;
      }
    }
    return true;
  }

  bool right_deleted_bit_unsynchronized() const {
    return dcas::deleted_of(sr_.left.raw.load(std::memory_order_acquire));
  }
  bool left_deleted_bit_unsynchronized() const {
    return dcas::deleted_of(sl_.right.raw.load(std::memory_order_acquire));
  }
  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  std::size_t chain_length_unsynchronized() const {
    std::size_t count = 0;
    const Node* n = dcas::pointer_of<Node>(sl_.right.raw.load(std::memory_order_acquire));
    while (n != &sr_) {
      ++count;
      n = dcas::pointer_of<Node>(n->right.raw.load(std::memory_order_acquire));
    }
    return count;
  }

  // Structural snapshot for verify::RepAuditor. Same quiescence caveat as
  // the walks above; the model checker additionally calls this at explored
  // states, where it is exact because every model thread is parked *before*
  // its next access (no step is half-done).
  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  ListRepView rep_view_unsynchronized() const {
    ListRepView view;
    view.sentinel_values_ok =
        sl_.value.raw.load(std::memory_order_acquire) == dcas::kSentL &&
        sr_.value.raw.load(std::memory_order_acquire) == dcas::kSentR;
    view.left_deleted = left_deleted_bit_unsynchronized();
    view.right_deleted = right_deleted_bit_unsynchronized();
    std::vector<const Node*> chain;
    const Node* n = dcas::pointer_of<const Node>(
        sl_.right.raw.load(std::memory_order_acquire));
    const std::size_t bound = pool_.capacity() + 2;
    view.reachable = true;
    while (n != &sr_) {
      if (n == nullptr || n == &sl_ || chain.size() > bound) {
        view.reachable = false;
        break;
      }
      chain.push_back(n);
      n = dcas::pointer_of<const Node>(
          n->right.raw.load(std::memory_order_acquire));
    }
    view.backlinks_ok = view.reachable;
    const Node* prev = &sl_;
    for (const Node* c : chain) {
      const std::uint64_t lw = c->left.raw.load(std::memory_order_acquire);
      if (dcas::pointer_of<const Node>(lw) != prev) view.backlinks_ok = false;
      if (dcas::deleted_of(lw) ||
          dcas::deleted_of(c->right.raw.load(std::memory_order_acquire))) {
        view.interior_deleted = true;
      }
      prev = c;
    }
    if (view.reachable &&
        dcas::pointer_of<const Node>(
            sr_.left.raw.load(std::memory_order_acquire)) != prev) {
      view.backlinks_ok = false;
    }
    view.values.reserve(chain.size());
    for (const Node* c : chain) {
      view.values.push_back(c->value.raw.load(std::memory_order_acquire));
    }
    return view;
  }

  const Pool& pool() const noexcept { return pool_; }
  Reclaim& reclaimer() noexcept { return reclaimer_; }

 private:
  // typedef node { pointer *L; pointer *R; val value; } — §4. The pool
  // rounds allocations to a cache line, so node addresses have their low
  // bits free for the deleted bit / descriptor mark.
  struct Node {
    dcas::Word left;
    dcas::Word right;
    dcas::Word value;
  };
  static_assert(std::is_trivially_destructible_v<Node>,
                "pool storage is released wholesale, never destroyed");

  static std::uint64_t ptr(const Node* n, bool deleted) noexcept {
    return dcas::encode_pointer(n, deleted);
  }

  // Footnote 3: report "full" only when memory is truly exhausted. A failed
  // allocate often just means every free node is parked in EBR limbo
  // awaiting its grace period — and the moment pushes start failing, pops
  // stop retiring, so nothing else would ever trigger a drain again (the
  // deque ratchets into a permanent full-and-empty no-op state; E11 caught
  // this). Prompt a collect (epoch advance + own-slot drain) and retry
  // once; repeated failing pushes re-enter at fresh epochs, so the limbo
  // ages out across calls even though one collect advances at most once.
  // On failure `stalled` reports nodes still waiting out a grace period,
  // which a retry inside this guard cannot wait for (see push_past_stalls).
  // DCD_REQUIRES_GUARD(pool allocate pops a shared free list; the op guard must pin the epoch)
  Node* allocate_node(bool* stalled = nullptr) {
    if (void* p = pool_.allocate()) return static_cast<Node*>(p);
    const bool limbo = reclaim::collect_stalled(reclaimer_);
    void* p = pool_.allocate();
    if (p == nullptr && stalled != nullptr) *stalled = limbo;
    return static_cast<Node*>(p);
  }

  // Figure 17.
  // DCD_REQUIRES_GUARD(only called from push/pop paths that hold the operation guard)
  void delete_right() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);    // line 3
      if (!dcas::deleted_of(old_l)) return;                // line 4
      Node* node = dcas::pointer_of<Node>(old_l);          // the null node
      // line 5: oldLL = oldL.ptr->L.ptr
      Node* ll = dcas::pointer_of<Node>(Dcas::load(node->left));
      const std::uint64_t ll_value = Dcas::load(ll->value);  // line 6
      if (!dcas::is_null(ll_value)) {
        const std::uint64_t old_llr = Dcas::load(ll->right);  // line 7
        if (dcas::pointer_of<Node>(old_llr) == node) {        // line 8
          // Lines 9-12: splice `node` out; SR->L := {ll, 0},
          // ll->R := {SR, 0}.
          // DCD_SYNC(delete.splice)
          // DCD_LP(Fig17:9-12, delete.splice, aux, inv=list.reachable+list.backlinks+list.deleted_target_null, "unlinks the single null node; helping step, no operation linearizes here")
          if (Dcas::dcas(sr_.left, ll->right, old_l, old_llr,
                         ptr(ll, false), ptr(&sr_, false))) {
            reclaimer_.retire(node, pool_);
            return;                                          // line 13
          }
        }
      } else {  // lines 16-26: two null items (Figure 16)
        const std::uint64_t old_r = Dcas::load(sl_.right);   // line 17
        Node* left_null = dcas::pointer_of<Node>(old_r);
        // Line 18, plus the adjacency check the paper lacks (DESIGN.md §2):
        // ll may be stale, read before `node`'s left neighbour was spliced
        // out, while SL->R is already a newer deleted node further left.
        // Swinging the sentinels together would then unlink every live node
        // between the two nulls.
        if (dcas::deleted_of(old_r) &&
            (left_null == ll || dcas::skips_two_null_adjacency<Dcas>())) {
          // Lines 19-24: point the sentinels at each other, removing both
          // null nodes at once.
          // DCD_SYNC(delete.two_null_splice)
          // DCD_LP(Fig16:19-24, delete.two_null_splice, aux, inv=list.two_deleted_minimum+list.sentinel_values+list.deleted_target_null, "both sentinels swing to each other, removing the final two null nodes at once")
          if (Dcas::dcas(sr_.left, sl_.right, old_l, old_r, ptr(&sl_, false),
                         ptr(&sr_, false))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(left_null, pool_);
            return;                                          // line 25
          }
        }
      }
      backoff.pause();
    }
  }

  // Figure 34 (mirror).
  // DCD_REQUIRES_GUARD(only called from push/pop paths that hold the operation guard)
  void delete_left() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      if (!dcas::deleted_of(old_r)) return;
      Node* node = dcas::pointer_of<Node>(old_r);
      Node* rr = dcas::pointer_of<Node>(Dcas::load(node->right));
      const std::uint64_t rr_value = Dcas::load(rr->value);
      if (!dcas::is_null(rr_value)) {
        const std::uint64_t old_rrl = Dcas::load(rr->left);
        if (dcas::pointer_of<Node>(old_rrl) == node) {
          // DCD_SYNC(delete.splice)
          // DCD_LP(Fig34:9-12, delete.splice, aux, inv=list.reachable+list.backlinks+list.deleted_target_null, "unlinks the single null node; helping step, no operation linearizes here")
          if (Dcas::dcas(sl_.right, rr->left, old_r, old_rrl,
                         ptr(rr, false), ptr(&sl_, false))) {
            reclaimer_.retire(node, pool_);
            return;
          }
        }
      } else {  // two null items
        const std::uint64_t old_l = Dcas::load(sr_.left);
        Node* right_null = dcas::pointer_of<Node>(old_l);
        if (dcas::deleted_of(old_l) &&
            (right_null == rr || dcas::skips_two_null_adjacency<Dcas>())) {
          // DCD_SYNC(delete.two_null_splice)
          // DCD_LP(Fig34:19-24, delete.two_null_splice, aux, inv=list.two_deleted_minimum+list.sentinel_values+list.deleted_target_null, "both sentinels swing to each other, removing the final two null nodes at once")
          if (Dcas::dcas(sl_.right, sr_.left, old_r, old_l, ptr(&sr_, false),
                         ptr(&sl_, false))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(right_null, pool_);
            return;
          }
        }
      }
      backoff.pause();
    }
  }

  // Declaration order matters: the reclaimer is destroyed before the pool,
  // force-draining limbo nodes back into the slab before it is released.
  Pool pool_;
  Reclaim reclaimer_;
  alignas(util::kCacheLineSize) Node sl_;
  alignas(util::kCacheLineSize) Node sr_;
  // Per-end elimination arrays; storage-free when the layer is off.
  using ElimEnd = std::conditional_t<Opt.elimination, EliminationEnd<Dcas>,
                                     EliminationDisabled>;
  [[no_unique_address]] ElimEnd elim_l_;
  [[no_unique_address]] ElimEnd elim_r_;
};

}  // namespace dcd::deque
