// Compile-time contracts for the reclamation layer.
//
// The paper assumes GC (§2); the list deques substitute a pluggable policy.
// ReclaimPolicy pins the surface the deques consume — an RAII Guard pinned
// for an operation's whole duration, retire() for nodes that have been
// physically unlinked, and collect() for prompt best-effort reclamation in
// tests — so a policy that silently drops part of the contract (say, a
// Guard that is not constructible from the policy, leaving operations
// unpinned) fails at the instantiation site instead of as a use-after-free
// under load.
//
// LfrcManaged captures the object contract of the LFRC methodology ([12]):
// a count word named `rc` managed through the policy layer, and a
// lfrc_dispose() hook that drops outgoing references and frees storage.
#pragma once

#include <concepts>
#include <type_traits>

#include "dcd/dcas/word.hpp"
#include "dcd/reclaim/node_pool.hpp"

namespace dcd::reclaim {

template <typename R>
concept ReclaimPolicy = requires(R r, void* node, NodePool& pool) {
  { R::kName } -> std::convertible_to<const char*>;
  typename R::Guard;
  requires std::is_constructible_v<typename R::Guard, R&>;
  requires !std::is_copy_constructible_v<R>;  // a policy owns limbo state
  { r.retire(node, pool) };
  { r.collect() };
};

// The allocator surface the deques consume (NodePool and MagazinePool both
// model it): pop/push with observable exhaustion, an EbrDomain-compatible
// deleter for retire(), and the introspection the tests and benches read.
// A pool that drops the static deleter would silently break every
// ReclaimPolicy::retire instantiation; this fails it at the deque instead.
template <typename P>
concept PoolPolicy =
    requires(P p, const P cp, void* node, std::size_t n) {
      requires !std::is_copy_constructible_v<P>;  // owns slab storage
      { p.allocate() } noexcept -> std::same_as<void*>;
      { p.deallocate(node) } noexcept;
      { P::deallocate_cb(node, static_cast<void*>(&p)) };
      { cp.owns(node) } noexcept -> std::convertible_to<bool>;
      { cp.capacity() } noexcept -> std::convertible_to<std::size_t>;
      { cp.node_size() } noexcept -> std::convertible_to<std::size_t>;
      { cp.live() } noexcept -> std::convertible_to<std::uint64_t>;
      { cp.allocation_failures() } noexcept
          -> std::convertible_to<std::uint64_t>;
    };

static_assert(PoolPolicy<NodePool>);

// Runs r.collect() and reports whether reclamation is stalled: retired
// nodes still wait for a grace period (behind a reader pinned at an older
// epoch, say), so a later collect may free them. A policy reports that as
// collect()'s bool; one whose collect() returns void never stalls.
template <ReclaimPolicy R>
bool collect_stalled(R& r) {
  if constexpr (std::is_void_v<decltype(r.collect())>) {
    r.collect();
    return false;
  } else {
    return r.collect();
  }
}

// Objects reclaimed purely by lock-free reference counting. The count word
// must sit at a fixed offset of type-stable storage so a stale LFRC load
// that probes recycled storage lands on a Word, never on arbitrary payload
// bytes. That offset must not be 0 when TaggedNodePool owns the storage:
// the pool keeps a free node's list link in its first word.
template <typename T>
concept LfrcManaged = requires(T t) {
  { t.rc } -> std::convertible_to<const dcas::Word&>;
  { t.lfrc_dispose() };
};

}  // namespace dcd::reclaim
