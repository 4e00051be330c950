// The deque types the benchmark runs, untraced and traced.
//
// Untraced, a workload runs deque::ListDeque<T> with its default policies
// (McasDcas, EbrReclaim, MagazinePool), as a user gets it. Registered<D>
// only adds a constructor that records the deque's pool, so the bench can
// read allocator counters of the deques the executor owns privately.
//
// Traced, the same ListDeque is instantiated over wrappers of those same
// default policies. Each wrapper records a span (trace.hpp) around the
// calls the deque makes into it, and TracedDeque records one around every
// deque verb. MCAS loads are not wrapped: there are several per operation
// and their time stays in the deque's self time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "dcd/dcas/concepts.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/exec/task.hpp"
#include "dcd/reclaim/concepts.hpp"
#include "trace.hpp"

namespace e2e {

namespace dcas = dcd::dcas;
namespace deque = dcd::deque;
namespace exec = dcd::exec;
namespace reclaim = dcd::reclaim;

// --- allocator counters of live deques --------------------------------------

struct PoolCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t refills = 0;
  std::uint64_t flushes = 0;
  std::uint64_t failures = 0;

  PoolCounts& operator+=(const PoolCounts& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    refills += o.refills;
    flushes += o.flushes;
    failures += o.failures;
    return *this;
  }
};

template <typename Pool>
PoolCounts counts_of(const Pool& p) {
  if constexpr (requires { p.inner(); }) {
    return counts_of(p.inner());
  } else {
    PoolCounts c;
    c.failures = p.allocation_failures();
    if constexpr (requires { p.stats(); }) {  // MagazinePool
      const auto s = p.stats();
      c.hits = s.hits;
      c.misses = s.misses;
      c.refills = s.refills;
      c.flushes = s.flushes;
    }
    return c;
  }
}

class PoolRegistry {
 public:
  static PoolRegistry& get() {
    static PoolRegistry r;
    return r;
  }

  void add(const void* key, std::function<PoolCounts()> read) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_back(key, std::move(read));
  }

  void remove(const void* key) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(entries_, [key](const auto& e) { return e.first == key; });
  }

  // Relaxed counters: exact once the deques are idle.
  PoolCounts sum() {
    std::lock_guard<std::mutex> lock(mu_);
    PoolCounts c;
    for (const auto& e : entries_) c += e.second();
    return c;
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<const void*, std::function<PoolCounts()>>> entries_;
};

template <typename D>
class Registered : public D {
 public:
  explicit Registered(std::size_t capacity) : D(capacity) {
    PoolRegistry::get().add(this, [this] { return counts_of(this->pool()); });
  }
  ~Registered() { PoolRegistry::get().remove(this); }
  Registered(const Registered&) = delete;
  Registered& operator=(const Registered&) = delete;
};

// --- traced policy wrappers -------------------------------------------------

template <dcas::DcasPolicy D>
struct TracedDcas {
  static constexpr const char* kName = D::kName;
  static constexpr bool kLockFree = D::kLockFree;

  static std::uint64_t load(const dcas::Word& w) noexcept { return D::load(w); }
  static void store_init(dcas::Word& w, std::uint64_t v) noexcept {
    D::store_init(w, v);
  }
  static bool cas(dcas::Word& w, std::uint64_t o, std::uint64_t n) noexcept {
    Span s(Kind::kDcas);
    return D::cas(w, o, n);
  }
  static bool dcas(dcas::Word& a, dcas::Word& b, std::uint64_t oa,
                   std::uint64_t ob, std::uint64_t na,
                   std::uint64_t nb) noexcept {
    Span s(Kind::kDcas);
    return D::dcas(a, b, oa, ob, na, nb);
  }
  static bool dcas_view(dcas::Word& a, dcas::Word& b, std::uint64_t& oa,
                        std::uint64_t& ob, std::uint64_t na,
                        std::uint64_t nb) noexcept {
    Span s(Kind::kDcas);
    return D::dcas_view(a, b, oa, ob, na, nb);
  }
};

template <reclaim::PoolPolicy P>
class TracedPool {
 public:
  TracedPool(std::size_t node_size, std::size_t capacity)
      : p_(node_size, capacity) {}
  TracedPool(const TracedPool&) = delete;
  TracedPool& operator=(const TracedPool&) = delete;

  void* allocate() noexcept {
    Span s(Kind::kReclaimAlloc);
    return p_.allocate();
  }
  void deallocate(void* n) noexcept {
    Span s(Kind::kReclaimFree);
    p_.deallocate(n);
  }
  static void deallocate_cb(void* n, void* ctx) {
    static_cast<TracedPool*>(ctx)->deallocate(n);
  }

  bool owns(const void* n) const noexcept { return p_.owns(n); }
  std::size_t capacity() const noexcept { return p_.capacity(); }
  std::size_t node_size() const noexcept { return p_.node_size(); }
  std::uint64_t live() const noexcept { return p_.live(); }
  std::uint64_t allocation_failures() const noexcept {
    return p_.allocation_failures();
  }
  const P& inner() const noexcept { return p_; }

 private:
  P p_;
};

template <reclaim::ReclaimPolicy R>
class TracedReclaim {
 public:
  static constexpr const char* kName = R::kName;

  // Times the pin and the unpin as two guard spans, so the inner guard is
  // built and destroyed by hand inside them.
  class Guard {
   public:
    explicit Guard(TracedReclaim& r) {
      Span s(Kind::kReclaimGuard);
      ::new (static_cast<void*>(storage_)) Inner(r.r_);
    }
    ~Guard() {
      Span s(Kind::kReclaimGuard);
      std::launder(reinterpret_cast<Inner*>(storage_))->~Inner();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    using Inner = typename R::Guard;
    alignas(Inner) unsigned char storage_[sizeof(Inner)];
  };

  template <typename Pool>
  void retire(void* node, Pool& pool) {
    Span s(Kind::kReclaimRetire);
    r_.retire(node, pool);
  }
  void collect() { r_.collect(); }

 private:
  R r_;
};

// A deque whose four verbs each record one span. It keeps the general
// deque interface, so exec::DequeTraits' primary template drives it.
template <typename D>
class TracedDeque : public Registered<D> {
 public:
  using value_type = typename D::value_type;
  using Registered<D>::Registered;

  deque::PushResult push_right(value_type v) {
    return push(Kind::kDequePushOwn, [&] { return D::push_right(v); });
  }
  deque::PushResult push_left(value_type v) {
    return push(Kind::kDequeInject, [&] { return D::push_left(v); });
  }
  std::optional<value_type> pop_right() {
    return pop(Kind::kDequePopOwn, [&] { return D::pop_right(); });
  }
  std::optional<value_type> pop_left() {
    return pop(Kind::kDequeSteal, [&] { return D::pop_left(); });
  }

 private:
  template <typename Op>
  static deque::PushResult push(Kind k, Op op) {
    Span s(k);
    const deque::PushResult r = op();
    if (r != deque::PushResult::kOkay) s.miss();
    return r;
  }

  // A popped task belongs to the job stamped in its args[3], so the pop's
  // span tree is attributed to that job.
  template <typename Op>
  static std::optional<value_type> pop(Kind k, Op op) {
    Span s(k);
    std::optional<value_type> v = op();
    if (!v) {
      s.miss();
    } else if constexpr (std::is_same_v<value_type, exec::Task*>) {
      tl_job = (*v)->args[3];
    }
    return v;
  }
};

// Splits a ListDeque type into its policy arguments, so the traced deque
// wraps whatever the library's defaults are.
template <typename D>
struct ListParams;

template <typename T, typename D, typename R, typename P,
          deque::ListOptions O>
struct ListParams<deque::ListDeque<T, D, R, P, O>> {
  using Traced = TracedDeque<deque::ListDeque<T, TracedDcas<D>,
                                              TracedReclaim<R>,
                                              TracedPool<P>, O>>;
};

struct Untraced {
  static constexpr bool kTraced = false;
  template <typename T>
  using Deque = Registered<deque::ListDeque<T>>;
};

struct Traced {
  static constexpr bool kTraced = true;
  template <typename T>
  using Deque = typename ListParams<deque::ListDeque<T>>::Traced;
};

}  // namespace e2e
