// The dummy-node variant of the linked-list deque (footnote 4, Figure 10).
//
// "One can altogether eliminate the need for a 'deleted' bit by introducing
//  a special dummy type 'delete-bit' node, distinguishable from regular
//  nodes, in place of the bit. ... pointing to a node indirectly via its
//  dummy node represents a bit value of true, and pointing directly
//  represents false."
//
// This implementation realises that footnote: a sentinel's inward pointer
// either references a list node directly (deleted = false) or references a
// dummy record whose `left` field holds the logically-deleted node
// (deleted = true). Dummies are distinguished by a kDummy value word.
//
// One deliberate deviation from the footnote: it suggests one static dummy
// per processor per side, but reusing a fixed dummy re-creates the ABA
// problem the bit encoding avoids (two deletions by the same thread produce
// *identical* sentinel words with different targets, so a stale
// confirm-DCAS could succeed against the wrong deletion). We instead
// allocate a fresh dummy per logical delete from the same pool as list
// nodes and retire it with EBR alongside them, which restores the exact
// one-to-one correspondence with the {pointer, bit} words of §4. The cost
// of the indirection — an extra node allocation per pop and an extra
// dereference on every inspection of a sentinel word — is measured in E9.
//
// The algorithmic skeleton (operation structure, DCAS placement,
// linearization points) is identical to ListDeque; only the deleted-bit
// representation differs.
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
#include "dcd/deque/types.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/reclaim/concepts.hpp"
#include "dcd/reclaim/node_pool.hpp"
#include "dcd/reclaim/policies.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/backoff.hpp"

namespace dcd::deque {

template <typename T, dcas::DcasPolicy Dcas = dcas::DefaultDcas,
          reclaim::ReclaimPolicy Reclaim = reclaim::EbrReclaim>
class ListDequeDummy {
  static_assert(dcas::DcasPolicy<Dcas>,
                "ListDequeDummy requires a policy providing both Figure 1 "
                "DCAS forms (see dcd/dcas/concepts.hpp)");
  static_assert(reclaim::ReclaimPolicy<Reclaim>,
                "ListDequeDummy requires a Guard/retire/collect reclamation "
                "policy (see dcd/reclaim/concepts.hpp)");
  static_assert(std::is_trivially_copyable_v<T>,
                "values are stored as raw 61-bit word payloads");

 public:
  using value_type = T;
  using Codec = ValueCodec<T>;

  explicit ListDequeDummy(std::size_t max_nodes = 1 << 16)
      : pool_(sizeof(Node), max_nodes) {
    Dcas::store_init(sl_.value, dcas::kSentL);
    Dcas::store_init(sr_.value, dcas::kSentR);
    Dcas::store_init(sl_.right, ptr(&sr_));
    Dcas::store_init(sr_.left, ptr(&sl_));
    Dcas::store_init(sl_.left, 0);
    Dcas::store_init(sr_.right, 0);
  }

  // DCD_GUARD_EXEMPT(single-threaded teardown; no concurrent frees exist)
  ~ListDequeDummy() {
    // Single-threaded teardown: free any sentinel-level dummies, then the
    // chain (the walk starts at the leftmost real node, which a left dummy
    // merely points at indirectly). The reclaimer's destructor then drains
    // limbo before the pool dies (member order).
    Node* n = resolve(sl_.right.raw.load(std::memory_order_acquire));  // before freeing the dummy —
    // deallocation overwrites its `left` word with a free-list link.
    if (Node* d = dummy_of(sr_.left.raw.load(std::memory_order_acquire))) pool_.deallocate(d);
    if (Node* d = dummy_of(sl_.right.raw.load(std::memory_order_acquire))) pool_.deallocate(d);
    while (n != &sr_) {
      Node* next = dcas::pointer_of<Node>(n->right.raw.load(std::memory_order_acquire));
      pool_.deallocate(n);
      n = next;
    }
  }

  ListDequeDummy(const ListDequeDummy&) = delete;
  ListDequeDummy& operator=(const ListDequeDummy&) = delete;

  PushResult push_right(T v) {
    return push_past_stalls(
        [&](bool& stalled) { return push_right_pinned(v, stalled); });
  }

  PushResult push_left(T v) {
    return push_past_stalls(
        [&](bool& stalled) { return push_left_pinned(v, stalled); });
  }

 private:
  // One pinned push attempt; push_past_stalls (types.hpp) retries it
  // unpinned while freed nodes wait in limbo.
  PushResult push_right_pinned(T v, bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    Node* node = allocate_node(&stalled);
    if (node == nullptr) return PushResult::kFull;
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);
      Node* neighbor = dcas::pointer_of<Node>(old_l);
      if (is_dummy(neighbor)) {  // "bit set": physical delete first
        delete_right();
        continue;
      }
      Dcas::store_init(node->right, ptr(&sr_));
      Dcas::store_init(node->left, old_l);
      Dcas::store_init(node->value, Codec::encode(v));
      // DCD_SYNC(dcas.any)
      // DCD_LP(Fig13:16-17, dcas.any, inv=list.reachable+list.backlinks+list.value_payload, "SR->L and neighbor->R swing to the new node in one step, publishing it")
      // DCD_PUBLISHES(dcas.any, right+left+value)
      if (Dcas::dcas(sr_.left, neighbor->right, old_l, ptr(&sr_), ptr(node),
                     ptr(node))) {
        return PushResult::kOkay;
      }
      backoff.pause();
    }
  }

  PushResult push_left_pinned(T v, bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    Node* node = allocate_node(&stalled);
    if (node == nullptr) return PushResult::kFull;
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      Node* neighbor = dcas::pointer_of<Node>(old_r);
      if (is_dummy(neighbor)) {
        delete_left();
        continue;
      }
      Dcas::store_init(node->left, ptr(&sl_));
      Dcas::store_init(node->right, old_r);
      Dcas::store_init(node->value, Codec::encode(v));
      // DCD_SYNC(dcas.any)
      // DCD_LP(Fig33:16-17, dcas.any, inv=list.reachable+list.backlinks+list.value_payload, "SL->R and neighbor->L swing to the new node in one step, publishing it")
      // DCD_PUBLISHES(dcas.any, left+right+value)
      if (Dcas::dcas(sl_.right, neighbor->left, old_r, ptr(&sl_), ptr(node),
                     ptr(node))) {
        return PushResult::kOkay;
      }
      backoff.pause();
    }
  }

 public:
  std::optional<T> pop_right() {
    return pop_past_stalls(
        [&](bool& stalled) { return pop_right_pinned(stalled); });
  }

  std::optional<T> pop_left() {
    return pop_past_stalls(
        [&](bool& stalled) { return pop_left_pinned(stalled); });
  }

 private:
  // One pinned pop attempt. A failed dummy allocation sets `stalled` and
  // returns, so pop_past_stalls (types.hpp) retries unpinned: spinning here
  // while pinned would keep limbo from ever draining.
  std::optional<T> pop_right_pinned(bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);
      Node* pointee = dcas::pointer_of<Node>(old_l);
      const std::uint64_t pv = Dcas::load(pointee->value);
      if (pv == dcas::kSentL) return std::nullopt;
      if (pv == dcas::kDummy) {  // deleted "bit" observed
        delete_right();
        backoff.pause();
        continue;
      }
      if (dcas::is_null(pv)) {
        // Logically deleted from the left; empty if the snapshot holds.
        // DCD_SYNC(empty.confirm)
        // DCD_LP(Fig11:9-11, empty.confirm, inv=list.sentinel_values+list.null_licensing, "identity DCAS confirms the snapshot {SR->L, null value} intact: deque observed empty")
        if (Dcas::dcas(sr_.left, pointee->value, old_l, pv, old_l, pv)) {
          return std::nullopt;
        }
      } else {
        // Logical delete: swing SR->L to a fresh dummy targeting pointee
        // while nulling the value — one DCAS, exactly as with the bit.
        Node* dummy = allocate_node();
        if (dummy == nullptr) {
          stalled = true;
          return std::nullopt;
        }
        Dcas::store_init(dummy->value, dcas::kDummy);
        Dcas::store_init(dummy->left, ptr(pointee));
        Dcas::store_init(dummy->right, 0);
        // DCD_SYNC(pop.commit)
        // DCD_LP(Fig11:16-17, pop.commit, inv=list.interior_deleted+list.null_licensing+list.value_payload, "SR->L swings to the dummy (the deleted-bit stand-in) while the value is nulled, claiming it")
        // DCD_PUBLISHES(pop.commit, value+left+right)
        if (Dcas::dcas(sr_.left, pointee->value, old_l, pv, ptr(dummy),
                       dcas::kNull)) {
          return Codec::decode(pv);
        }
        // The dummy was never published, but a direct free-list push here
        // could still race a concurrent allocate() holding a stale next
        // pointer (pop-pop-push ABA), so it goes through EBR like any
        // retired node.
        reclaimer_.retire(dummy, pool_);
      }
      backoff.pause();
    }
  }

  std::optional<T> pop_left_pinned(bool& stalled) {
    typename Reclaim::Guard guard(reclaimer_);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      Node* pointee = dcas::pointer_of<Node>(old_r);
      const std::uint64_t pv = Dcas::load(pointee->value);
      if (pv == dcas::kSentR) return std::nullopt;
      if (pv == dcas::kDummy) {
        delete_left();
        backoff.pause();
        continue;
      }
      if (dcas::is_null(pv)) {
        // DCD_SYNC(empty.confirm)
        // DCD_LP(Fig32:9-11, empty.confirm, inv=list.sentinel_values+list.null_licensing, "identity DCAS confirms the snapshot {SL->R, null value} intact: deque observed empty")
        if (Dcas::dcas(sl_.right, pointee->value, old_r, pv, old_r, pv)) {
          return std::nullopt;
        }
      } else {
        Node* dummy = allocate_node();
        if (dummy == nullptr) {
          stalled = true;
          return std::nullopt;
        }
        Dcas::store_init(dummy->value, dcas::kDummy);
        Dcas::store_init(dummy->left, ptr(pointee));
        Dcas::store_init(dummy->right, 0);
        // DCD_SYNC(pop.commit)
        // DCD_LP(Fig32:16-17, pop.commit, inv=list.interior_deleted+list.null_licensing+list.value_payload, "SL->R swings to the dummy (the deleted-bit stand-in) while the value is nulled, claiming it")
        // DCD_PUBLISHES(pop.commit, value+left+right)
        if (Dcas::dcas(sl_.right, pointee->value, old_r, pv, ptr(dummy),
                       dcas::kNull)) {
          return Codec::decode(pv);
        }
        reclaimer_.retire(dummy, pool_);  // see pop_right_pinned: not direct
      }
      backoff.pause();
    }
  }

 public:
  // --- quiescent inspection (tests only) ----------------------------------
  //
  // Like ListDeque's: raw acquire loads are sound here because a quiescent
  // structure holds no in-flight descriptors, and acquire synchronises
  // with the releasing DCAS of whatever operation last touched each word.

  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  std::size_t size_unsynchronized() const {
    std::size_t count = 0;
    const Node* n = resolve(sl_.right.raw.load(std::memory_order_acquire));
    while (n != &sr_) {
      const std::uint64_t v = n->value.raw.load(std::memory_order_acquire);
      if (!dcas::is_null(v) && v != dcas::kDummy) ++count;
      n = dcas::pointer_of<const Node>(n->right.raw.load(std::memory_order_acquire));
    }
    return count;
  }

  // RepInv for the dummy representation: the chain (after resolving
  // sentinel-level dummies) is doubly linked and acyclic; dummies appear
  // only at sentinel level and target the adjacent chain end; null values
  // appear exactly where a dummy licenses them.
  // DCD_GUARD_EXEMPT(quiescent test-only walk; no concurrent frees by contract)
  bool check_rep_inv_unsynchronized() const {
    if (sl_.value.raw.load(std::memory_order_acquire) != dcas::kSentL) return false;
    if (sr_.value.raw.load(std::memory_order_acquire) != dcas::kSentR) return false;
    const Node* left_dummy = dummy_of(sl_.right.raw.load(std::memory_order_acquire));
    const Node* right_dummy = dummy_of(sr_.left.raw.load(std::memory_order_acquire));
    std::vector<const Node*> chain;
    const Node* n = resolve(sl_.right.raw.load(std::memory_order_acquire));
    const std::size_t bound = pool_.capacity() + 2;
    while (n != &sr_) {
      if (n == nullptr || n == &sl_ || chain.size() > bound) return false;
      if (is_dummy(n)) return false;  // dummies never sit in the chain
      chain.push_back(n);
      n = dcas::pointer_of<const Node>(n->right.raw.load(std::memory_order_acquire));
    }
    const Node* prev = &sl_;
    for (const Node* c : chain) {
      if (dcas::pointer_of<const Node>(c->left.raw.load(std::memory_order_acquire)) != prev) {
        return false;
      }
      prev = c;
    }
    if (resolve(sr_.left.raw.load(std::memory_order_acquire)) != (chain.empty() ? &sl_ : prev)) {
      return false;
    }
    // A dummy must target the adjacent chain end, which must be null.
    if (right_dummy != nullptr) {
      if (chain.empty() ||
          dcas::pointer_of<const Node>(right_dummy->left.raw.load(std::memory_order_acquire)) !=
              chain.back() ||
          !dcas::is_null(chain.back()->value.raw.load(std::memory_order_acquire))) {
        return false;
      }
    }
    if (left_dummy != nullptr) {
      if (chain.empty() ||
          dcas::pointer_of<const Node>(left_dummy->left.raw.load(std::memory_order_acquire)) !=
              chain.front() ||
          !dcas::is_null(chain.front()->value.raw.load(std::memory_order_acquire))) {
        return false;
      }
    }
    if (left_dummy != nullptr && right_dummy != nullptr && chain.size() < 2) {
      return false;
    }
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const bool licensed = (i == 0 && left_dummy != nullptr) ||
                            (i + 1 == chain.size() && right_dummy != nullptr);
      const std::uint64_t v = chain[i]->value.raw.load(std::memory_order_acquire);
      if (v == dcas::kDummy) return false;
      if (dcas::is_null(v) && !licensed) return false;
    }
    return true;
  }

  bool right_dummy_unsynchronized() const {
    return dummy_of(sr_.left.raw.load(std::memory_order_acquire)) != nullptr;
  }
  bool left_dummy_unsynchronized() const {
    return dummy_of(sl_.right.raw.load(std::memory_order_acquire)) != nullptr;
  }

  const reclaim::NodePool& pool() const noexcept { return pool_; }
  Reclaim& reclaimer() noexcept { return reclaimer_; }

 private:
  struct Node {
    dcas::Word left;   // dummies: the logically-deleted node
    dcas::Word right;
    dcas::Word value;  // dummies: kDummy
  };
  static_assert(std::is_trivially_destructible_v<Node>,
                "pool storage is released wholesale, never destroyed");

  static std::uint64_t ptr(const Node* n) noexcept {
    return dcas::encode_pointer(n, /*deleted=*/false);
  }

  // Footnote 3 contract (see ListDeque::allocate_node): a failed allocate
  // may only mean the free list is parked in EBR limbo; once pushes fail,
  // nothing retires, so no retire-triggered drain would ever run again.
  // Prompt a collect and retry once before reporting exhaustion; the pops
  // then retry unpinned through pop_past_stalls.
  // `stalled` as in ListDeque::allocate_node.
  // DCD_REQUIRES_GUARD(pool allocate pops a shared free list; the op guard must pin the epoch)
  Node* allocate_node(bool* stalled = nullptr) {
    if (void* p = pool_.allocate()) return static_cast<Node*>(p);
    const bool limbo = reclaim::collect_stalled(reclaimer_);
    void* p = pool_.allocate();
    if (p == nullptr && stalled != nullptr) *stalled = limbo;
    return static_cast<Node*>(p);
  }

  // DCD_REQUIRES_GUARD(reads a chain node's value word; live only under the caller's protection)
  static bool is_dummy(const Node* n) noexcept {
    return n->value.raw.load(std::memory_order_acquire) == dcas::kDummy;
  }

  // Quiescent helpers for teardown/introspection.
  // DCD_GUARD_EXEMPT(quiescent helper; callers are teardown or test-only walks)
  Node* dummy_of(std::uint64_t word) const {
    auto* n = dcas::pointer_of<Node>(word);
    return (n != nullptr && n != &sl_ && n != &sr_ && is_dummy(n)) ? n
                                                                   : nullptr;
  }
  // DCD_REQUIRES_GUARD(resolved pointer stays live only while the caller's scope pins it)
  const Node* resolve(std::uint64_t word) const {
    auto* n = dcas::pointer_of<const Node>(word);
    if (n != nullptr && n != &sl_ && n != &sr_ && is_dummy(n)) {
      return dcas::pointer_of<const Node>(n->left.raw.load(std::memory_order_acquire));
    }
    return n;
  }
  // DCD_REQUIRES_GUARD(resolved pointer stays live only while the caller's scope pins it)
  Node* resolve(std::uint64_t word) {
    return const_cast<Node*>(
        static_cast<const ListDequeDummy*>(this)->resolve(word));
  }
  static Node* target_of(const dcas::Word& w) {
    return dcas::pointer_of<Node>(w.raw.load(std::memory_order_acquire));
  }

  // Figure 17 with the dummy encoding: SR->L == D(dummy->X) plays the role
  // of {X, deleted=1}.
  // DCD_REQUIRES_GUARD(only called from push/pop paths that hold the operation guard)
  void delete_right() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(sr_.left);
      Node* dummy = dcas::pointer_of<Node>(old_l);
      if (!is_dummy(dummy)) return;  // "bit" already cleared
      Node* node = dcas::pointer_of<Node>(Dcas::load(dummy->left));
      Node* ll = dcas::pointer_of<Node>(Dcas::load(node->left));
      const std::uint64_t ll_value = Dcas::load(ll->value);
      if (!dcas::is_null(ll_value) && ll_value != dcas::kDummy) {
        const std::uint64_t old_llr = Dcas::load(ll->right);
        if (dcas::pointer_of<Node>(old_llr) == node) {
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig17:9-12, dcas.any, aux, inv=list.reachable+list.backlinks+list.deleted_target_null, "unlinks the null node and its dummy; helping step, no operation linearizes here")
          if (Dcas::dcas(sr_.left, ll->right, old_l, old_llr, ptr(ll),
                         ptr(&sr_))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(dummy, pool_);
            return;
          }
        }
      } else if (dcas::is_null(ll_value)) {  // two null items (Figure 16)
        const std::uint64_t old_r = Dcas::load(sl_.right);
        Node* left_dummy = dcas::pointer_of<Node>(old_r);
        if (is_dummy(left_dummy)) {
          Node* left_null =
              dcas::pointer_of<Node>(Dcas::load(left_dummy->left));
          // The two nulls must be neighbours (ListDeque::delete_right).
          if (left_null != ll && !dcas::skips_two_null_adjacency<Dcas>()) {
            backoff.pause();
            continue;
          }
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig16:19-24, dcas.any, aux, inv=list.two_deleted_minimum+list.sentinel_values+list.deleted_target_null, "both sentinels swing to each other, removing the final null nodes and their dummies at once")
          if (Dcas::dcas(sr_.left, sl_.right, old_l, old_r, ptr(&sl_),
                         ptr(&sr_))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(dummy, pool_);
            reclaimer_.retire(left_null, pool_);
            reclaimer_.retire(left_dummy, pool_);
            return;
          }
        }
      }
      backoff.pause();
    }
  }

  // DCD_REQUIRES_GUARD(only called from push/pop paths that hold the operation guard)
  void delete_left() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(sl_.right);
      Node* dummy = dcas::pointer_of<Node>(old_r);
      if (!is_dummy(dummy)) return;
      Node* node = dcas::pointer_of<Node>(Dcas::load(dummy->left));
      Node* rr = dcas::pointer_of<Node>(Dcas::load(node->right));
      const std::uint64_t rr_value = Dcas::load(rr->value);
      if (!dcas::is_null(rr_value) && rr_value != dcas::kDummy) {
        const std::uint64_t old_rrl = Dcas::load(rr->left);
        if (dcas::pointer_of<Node>(old_rrl) == node) {
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig34:9-12, dcas.any, aux, inv=list.reachable+list.backlinks+list.deleted_target_null, "unlinks the null node and its dummy; helping step, no operation linearizes here")
          if (Dcas::dcas(sl_.right, rr->left, old_r, old_rrl, ptr(rr),
                         ptr(&sl_))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(dummy, pool_);
            return;
          }
        }
      } else if (dcas::is_null(rr_value)) {
        const std::uint64_t old_l = Dcas::load(sr_.left);
        Node* right_dummy = dcas::pointer_of<Node>(old_l);
        if (is_dummy(right_dummy)) {
          Node* right_null =
              dcas::pointer_of<Node>(Dcas::load(right_dummy->left));
          if (right_null != rr && !dcas::skips_two_null_adjacency<Dcas>()) {
            backoff.pause();
            continue;
          }
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig34:19-24, dcas.any, aux, inv=list.two_deleted_minimum+list.sentinel_values+list.deleted_target_null, "both sentinels swing to each other, removing the final null nodes and their dummies at once")
          if (Dcas::dcas(sl_.right, sr_.left, old_r, old_l, ptr(&sr_),
                         ptr(&sl_))) {
            reclaimer_.retire(node, pool_);
            reclaimer_.retire(dummy, pool_);
            reclaimer_.retire(right_null, pool_);
            reclaimer_.retire(right_dummy, pool_);
            return;
          }
        }
      }
      backoff.pause();
    }
  }

  reclaim::NodePool pool_;
  Reclaim reclaimer_;
  alignas(util::kCacheLineSize) Node sl_;
  alignas(util::kCacheLineSize) Node sr_;
};

}  // namespace dcd::deque
