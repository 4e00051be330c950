// Reclamation policies for the linked-list deque.
//
// The paper assumes GC (§2); ListDeque is parameterised on one of these
// policies so experiment E7 can compare the substitutes. A policy provides
// a Guard (pinned for the duration of every operation) and retire()
// (called once a node has been physically unlinked).
#pragma once

#include "dcd/reclaim/concepts.hpp"
#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/reclaim/node_pool.hpp"

namespace dcd::reclaim {

// Epoch-based reclamation: nodes return to the pool after a grace period.
// This is the default and the closest match to GC's guarantees (no
// use-after-free, no address reuse while an operation might hold a
// reference — hence no ABA).
class EbrReclaim {
 public:
  static constexpr const char* kName = "ebr";

  class Guard {
   public:
    explicit Guard(EbrReclaim& r) : g_(r.domain_) {}

   private:
    EbrDomain::Guard g_;
  };

  // Templated over the pool so the same policy serves NodePool and
  // MagazinePool: the node returns through Pool::deallocate_cb once its
  // grace period has elapsed.
  template <PoolPolicy Pool>
  void retire(void* node, Pool& pool) {
    domain_.retire(node, Pool::deallocate_cb, &pool);
  }

  // Prompt best-effort reclamation. True while retired nodes still wait
  // for a grace period (see EbrDomain::collect).
  bool collect() { return domain_.collect(); }

  EbrDomain& domain() { return domain_; }

 private:
  EbrDomain domain_;
};

// No reclamation: unlinked nodes are abandoned until the owning deque is
// destroyed (their slab storage is released wholesale with the pool). The
// E7 upper bound: zero reclamation overhead, unbounded memory growth.
class LeakyReclaim {
 public:
  static constexpr const char* kName = "leaky";

  LeakyReclaim() = default;
  LeakyReclaim(const LeakyReclaim&) = delete;
  LeakyReclaim& operator=(const LeakyReclaim&) = delete;

  class Guard {
   public:
    explicit Guard(LeakyReclaim&) {}
  };

  template <PoolPolicy Pool>
  void retire(void* node, Pool& pool) {
    (void)node;
    (void)pool;
  }

  void collect() {}
};

// Re-certify the roster whenever any policy changes (mirrors the DcasPolicy
// static_asserts in dcd/dcas/policies.hpp).
static_assert(ReclaimPolicy<EbrReclaim>);
static_assert(ReclaimPolicy<LeakyReclaim>);
static_assert(PoolPolicy<MagazinePool>);

}  // namespace dcd::reclaim
