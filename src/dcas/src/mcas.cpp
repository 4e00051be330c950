#include "dcd/dcas/mcas.hpp"

#include <new>
#include <utility>

#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/tagged_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::dcas {

namespace {

// Mark layout inside a descriptor-carrying word: bit0 set; bit1 selects the
// descriptor kind. Descriptors are 64-aligned so the payload bits recover
// the address exactly.
constexpr std::uint64_t kRdcssMark = 0b01;
constexpr std::uint64_t kMcasMark = 0b11;
constexpr std::uint64_t kMarkBits = 0b11;

constexpr bool is_marked(std::uint64_t v) { return is_descriptor(v); }
constexpr bool is_rdcss(std::uint64_t v) { return (v & kMarkBits) == kRdcssMark; }
constexpr bool is_mcas(std::uint64_t v) { return (v & kMarkBits) == kMcasMark; }

constexpr std::uint64_t kUndecided = 0;
constexpr std::uint64_t kSucceeded = 1;
constexpr std::uint64_t kFailed = 2;

struct alignas(64) McasDesc {
  Word* addr[McasDcas::kMaxCasnWidth];
  std::uint64_t oldv[McasDcas::kMaxCasnWidth];
  std::uint64_t newv[McasDcas::kMaxCasnWidth];
  std::size_t width;
  std::atomic<std::uint64_t> status{kUndecided};
  bool pooled;  // storage origin, for the dispose path
};

// RDCSS sub-descriptor: "install newv into *data if *data == oldv and the
// operation's status is still UNDECIDED".
struct alignas(64) RdcssDesc {
  std::atomic<std::uint64_t>* cond;  // &owner->status
  Word* data;
  std::uint64_t oldv;
  std::uint64_t newv;  // mcas-marked owner descriptor
  bool pooled;
};

// Descriptor storage. A heap `new` would route the "lock-free" DCAS
// through malloc's locks, so descriptors come from lock-free type-stable
// pools, with the heap as the fallback once a pool is empty. The pools are
// immortal (leaked singletons): the global EBR domain's force-drain at
// process exit returns the last descriptors to them, so they must outlive
// every static destructor.
constexpr std::size_t kDescPoolCapacity = 1 << 14;

reclaim::TaggedNodePool& mcas_desc_pool() {
  static auto* pool =
      new reclaim::TaggedNodePool(sizeof(McasDesc), kDescPoolCapacity);
  return *pool;
}
reclaim::TaggedNodePool& rdcss_desc_pool() {
  static auto* pool =
      new reclaim::TaggedNodePool(sizeof(RdcssDesc), kDescPoolCapacity);
  return *pool;
}

// Per-thread descriptor recycling (DESIGN.md §13.4). Every DCAS takes one
// MCAS and two RDCSS descriptors and retires all three; served from the
// pools above, that is a cmpxchg16b on a process-wide head each way, so
// threads DCASing disjoint words still serialise on the allocator. Each
// ThreadRegistry slot therefore owns one cache line holding a LIFO free
// list per descriptor kind, threaded through the free descriptors
// themselves. Allocation pops the caller's list before falling back to
// the pool and then the heap; the post-grace dispose pushes onto the list
// of the slot that retired the descriptor, passed as the EBR deleter
// context, whatever the descriptor's origin.
//
// Keeping heap descriptors too is what makes the lists steady. While a
// thread pinned at an older epoch (one descheduled mid-DCAS, say) holds
// the global epoch back, every other thread's descriptors pile up in
// limbo, its list runs dry and it allocates afresh; when the epoch moves,
// the whole pile comes back to its list. A list that kept only a few dozen
// would hand the rest back to the shared pool or the heap and pay for them
// again at the next stall, so throughput would follow how often threads
// happen to be descheduled. A list instead keeps up to kDescCacheCap of
// each kind, so it grows to its thread's largest stall and then serves
// every later one; only the excess goes back to where it came from. It
// never holds more than its slot's limbo held at some point.
//
// Ownership: a slot's lists are touched only by the slot's owner. The
// allocation side runs on the owner by construction. The dispose side runs
// inside EbrDomain::drain of the retiring slot, which only that slot's
// owner calls (from retire/collect), or on the single thread running the
// domain destructor at exit. A recycled slot passes its lists to the next
// owner through ThreadRegistry's release/acquire on the slot flag.
constexpr std::size_t kDescCacheCap = 1 << 16;

struct FreeDesc {
  FreeDesc* next;
  bool pooled;  // storage origin of the descriptor this node overlays
};

struct DescList {
  FreeDesc* head = nullptr;
  std::size_t count = 0;
};

struct alignas(util::kCacheLineSize) DescCache {
  DescList mcas;
  DescList rdcss;
};

// Zero-initialised static storage with a trivial destructor, so the lists
// stay valid through the global domain's force-drain at process exit.
DescCache g_desc_cache[util::ThreadRegistry::kMaxThreads];

// The calling thread's cache. A thread's registry slot is stable for its
// lifetime, so the out-of-line self() call is paid once per thread.
DescCache& my_desc_cache() {
  static thread_local DescCache* cache = nullptr;
  if (cache == nullptr) cache = &g_desc_cache[util::ThreadRegistry::self()];
  return *cache;
}

// Storage for one descriptor: the list's head, else a pool node, else
// nullptr (the caller then uses the heap). `pooled` reports the origin.
// DCD_GUARD_EXEMPT(owner-only list; its descriptors were freed after their grace period)
void* cache_pop(DescList& list, reclaim::TaggedNodePool& pool, bool& pooled) {
  if (FreeDesc* fd = list.head) {
    list.head = fd->next;
    --list.count;
    pooled = fd->pooled;
    return fd;
  }
  pooled = true;
  return pool.allocate();
}

// False when the list is full; the caller then returns the descriptor to
// its origin.
// DCD_GUARD_EXEMPT(post-grace EBR callback on the owner's list; the descriptor is exclusively owned here)
bool cache_push(DescList& list, void* p, bool pooled) {
  if (list.count == kDescCacheCap) return false;
  FreeDesc* const next = list.head;
  list.head = new (p) FreeDesc{next, pooled};
  ++list.count;
  return true;
}

// DCD_REQUIRES_GUARD(descriptor is handed out raw; the pinned entry point's guard covers it until retire)
McasDesc* alloc_mcas_desc(DescCache& cache) {
  ++Telemetry::tl().descriptors;
  bool pooled;
  if (void* raw = cache_pop(cache.mcas, mcas_desc_pool(), pooled)) {
    auto* d = new (raw) McasDesc;
    d->pooled = pooled;
    return d;
  }
  auto* d = new McasDesc;
  d->pooled = false;
  return d;
}

// DCD_REQUIRES_GUARD(descriptor is handed out raw; the pinned entry point's guard covers it until retire)
RdcssDesc* alloc_rdcss_desc(DescCache& cache,
                            std::atomic<std::uint64_t>* cond, Word* data,
                            std::uint64_t oldv, std::uint64_t newv) {
  ++Telemetry::tl().descriptors;
  bool pooled;
  if (void* raw = cache_pop(cache.rdcss, rdcss_desc_pool(), pooled)) {
    return new (raw) RdcssDesc{cond, data, oldv, newv, pooled};
  }
  return new RdcssDesc{cond, data, oldv, newv, false};
}

// ctx is the retiring slot's DescCache. A descriptor the full list cannot
// take goes back to where it came from.
// DCD_GUARD_EXEMPT(post-grace EBR callback; the descriptor is exclusively owned here)
void dispose_mcas_desc(void* p, void* ctx) {
  auto* d = static_cast<McasDesc*>(p);
  const bool pooled = d->pooled;
  d->~McasDesc();
  if (cache_push(static_cast<DescCache*>(ctx)->mcas, d, pooled)) return;
  if (pooled) {
    mcas_desc_pool().deallocate(d);
  } else {
    ::operator delete(d, std::align_val_t{alignof(McasDesc)});
  }
}

// ctx is the retiring slot's DescCache, as above.
// DCD_GUARD_EXEMPT(post-grace EBR callback; the descriptor is exclusively owned here)
void dispose_rdcss_desc(void* p, void* ctx) {
  auto* d = static_cast<RdcssDesc*>(p);
  const bool pooled = d->pooled;
  d->~RdcssDesc();
  if (cache_push(static_cast<DescCache*>(ctx)->rdcss, d, pooled)) return;
  if (pooled) {
    rdcss_desc_pool().deallocate(d);
  } else {
    ::operator delete(d, std::align_val_t{alignof(RdcssDesc)});
  }
}

std::uint64_t mark(RdcssDesc* d) {
  return reinterpret_cast<std::uint64_t>(d) | kRdcssMark;
}
std::uint64_t mark(McasDesc* d) {
  return reinterpret_cast<std::uint64_t>(d) | kMcasMark;
}
RdcssDesc* rdcss_of(std::uint64_t v) {
  return reinterpret_cast<RdcssDesc*>(v & ~kMarkBits);
}
McasDesc* mcas_of(std::uint64_t v) {
  return reinterpret_cast<McasDesc*>(v & ~kMarkBits);
}

// Finishes an installed RDCSS: replace the sub-descriptor mark with either
// the MCAS mark (condition still UNDECIDED) or the original value.
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the load/dcas/casn entry guard)
void rdcss_complete(RdcssDesc* d) {
  const std::uint64_t cond = d->cond->load(std::memory_order_acquire);
  std::uint64_t expected = mark(d);
  const std::uint64_t replacement = (cond == kUndecided) ? d->newv : d->oldv;
  // DCD_SYNC(policy-internal)
  d->data->raw.compare_exchange_strong(expected, replacement,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed);
  ++Telemetry::tl().cas_ops;
}

// The RDCSS operation itself. Returns the value logically read from *data:
// d->oldv on success, otherwise the conflicting content (a clean value or
// an mcas-marked word; rdcss marks are resolved internally).
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the load/dcas/casn entry guard)
std::uint64_t rdcss(RdcssDesc* d) {
  // DCD_PROGRESS(CAS failure means another thread's install or help committed; conflicting rdcss marks are resolved before retrying)
  for (;;) {
    std::uint64_t expected = d->oldv;
    ++Telemetry::tl().cas_ops;
    // DCD_SYNC(policy-internal)
    if (d->data->raw.compare_exchange_strong(expected, mark(d),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      rdcss_complete(d);
      return d->oldv;
    }
    if (is_rdcss(expected)) {
      rdcss_complete(rdcss_of(expected));
      continue;
    }
    return expected;
  }
}

// Runs an MCAS to completion (owner and helpers execute the same code).
// Caller must be pinned in the global EBR domain.
// DCD_REQUIRES_GUARD(caller is pinned in the global EBR domain by the dcas/casn entry guard)
bool mcas_help(McasDesc* d) {
  // DCD_HB(mcas.status.decide, role=acquire)
  if (d->status.load(std::memory_order_acquire) == kUndecided) {
    // Phase 1: install the descriptor in both words (ascending address
    // order — established at creation — so concurrent MCASes cannot
    // livelock each other).
    DescCache& cache = my_desc_cache();
    std::uint64_t desired = kSucceeded;
    for (std::size_t i = 0; i < d->width && desired == kSucceeded; ++i) {
      for (;;) {
        auto* rd = alloc_rdcss_desc(cache, &d->status, d->addr[i],
                                    d->oldv[i], mark(d));
        const std::uint64_t r = rdcss(rd);
        reclaim::global_ebr_domain().retire(rd, dispose_rdcss_desc, &cache);
        if (is_mcas(r)) {
          if (r == mark(d)) break;  // a helper already installed for us
          ++Telemetry::tl().helps;
          mcas_help(mcas_of(r));  // clear the conflicting operation first
          continue;
        }
        if (r == d->oldv[i]) break;  // installed by the rdcss above
        desired = kFailed;           // genuine value mismatch
        break;
      }
    }
    std::uint64_t expected = kUndecided;
    // DCD_SYNC(policy-internal)
    // DCD_HB(mcas.status.decide, role=release)
    d->status.compare_exchange_strong(expected, desired,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire);
    ++Telemetry::tl().cas_ops;
  }

  // Phase 2: swap the marks for the outcome's values. Idempotent; any
  // subset of owner/helpers may execute it.
  const bool ok = d->status.load(std::memory_order_acquire) == kSucceeded;
  for (std::size_t i = 0; i < d->width; ++i) {
    std::uint64_t expected = mark(d);
    // DCD_SYNC(policy-internal)
    d->addr[i]->raw.compare_exchange_strong(
        expected, ok ? d->newv[i] : d->oldv[i], std::memory_order_acq_rel,
        std::memory_order_relaxed);
    ++Telemetry::tl().cas_ops;
  }
  return ok;
}

}  // namespace

std::uint64_t McasDcas::load(const Word& w) noexcept {
  ++Telemetry::tl().loads;
  std::uint64_t v = w.raw.load(std::memory_order_acquire);
  if (!is_marked(v)) return v;

  // Slow path: pin first, then re-read, so the descriptor we dereference
  // cannot be reclaimed under us.
  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain());
  auto& word = const_cast<Word&>(w);
  for (;;) {
    v = word.raw.load(std::memory_order_acquire);
    if (!is_marked(v)) return v;
    ++Telemetry::tl().helps;
    if (is_rdcss(v)) {
      rdcss_complete(rdcss_of(v));
    } else {
      mcas_help(mcas_of(v));
    }
  }
}

bool McasDcas::cas(Word& w, std::uint64_t oldv,
                   std::uint64_t newv) noexcept {
  DCD_DEBUG_ASSERT(!is_marked(oldv) && !is_marked(newv));
  auto& c = Telemetry::tl();
  // DCD_PROGRESS(every retry first helps the conflicting descriptor to completion via load(); a clean mismatch returns false)
  for (;;) {
    const std::uint64_t v = load(w);  // helps any descriptor away
    if (v != oldv) return false;
    std::uint64_t expected = oldv;
    ++c.cas_ops;
    // DCD_SYNC(policy-internal)
    if (w.raw.compare_exchange_strong(expected, newv,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return true;
    }
    if (!is_marked(expected)) return false;  // clean conflicting value
    // A descriptor slipped in; help it out and retry the comparison.
  }
}

bool McasDcas::dcas(Word& a, Word& b, std::uint64_t oa, std::uint64_t ob,
                    std::uint64_t na, std::uint64_t nb) noexcept {
  DCD_ASSERT(&a != &b);
  DCD_DEBUG_ASSERT(!is_marked(oa) && !is_marked(ob) && !is_marked(na) &&
                   !is_marked(nb));
  auto& c = Telemetry::tl();
  ++c.dcas_calls;

  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain());
  DescCache& cache = my_desc_cache();
  auto* d = alloc_mcas_desc(cache);
  d->width = 2;
  // Ascending address order (see mcas_help).
  if (&a < &b) {
    d->addr[0] = &a; d->addr[1] = &b;
    d->oldv[0] = oa; d->oldv[1] = ob;
    d->newv[0] = na; d->newv[1] = nb;
  } else {
    d->addr[0] = &b; d->addr[1] = &a;
    d->oldv[0] = ob; d->oldv[1] = oa;
    d->newv[0] = nb; d->newv[1] = na;
  }
  const bool ok = mcas_help(d);
  reclaim::global_ebr_domain().retire(d, dispose_mcas_desc, &cache);
  if (!ok) ++c.dcas_failures;
  return ok;
}

bool McasDcas::casn(Word* const* addrs, const std::uint64_t* olds,
                    const std::uint64_t* news, std::size_t n) noexcept {
  DCD_ASSERT(n >= 1 && n <= kMaxCasnWidth);
  auto& c = Telemetry::tl();
  ++c.dcas_calls;

  reclaim::EbrDomain::Guard guard(reclaim::global_ebr_domain());
  DescCache& cache = my_desc_cache();
  auto* d = alloc_mcas_desc(cache);
  d->width = n;
  for (std::size_t i = 0; i < n; ++i) {
    d->addr[i] = addrs[i];
    d->oldv[i] = olds[i];
    d->newv[i] = news[i];
    DCD_DEBUG_ASSERT(!is_marked(olds[i]) && !is_marked(news[i]));
  }
  // Ascending address order (livelock freedom); distinct addresses
  // required, as with dcas.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = i; j > 0 && d->addr[j] < d->addr[j - 1]; --j) {
      std::swap(d->addr[j], d->addr[j - 1]);
      std::swap(d->oldv[j], d->oldv[j - 1]);
      std::swap(d->newv[j], d->newv[j - 1]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    DCD_ASSERT(d->addr[i] != d->addr[i - 1]);
  }
  const bool ok = mcas_help(d);
  reclaim::global_ebr_domain().retire(d, dispose_mcas_desc, &cache);
  if (!ok) ++c.dcas_failures;
  return ok;
}

void McasDcas::snapshot(Word& a, Word& b, std::uint64_t& va,
                        std::uint64_t& vb) noexcept {
  for (;;) {
    va = load(a);
    vb = load(b);
    // An identity DCAS that succeeds proves (va, vb) was an atomic pair.
    if (dcas(a, b, va, vb, va, vb)) return;
  }
}

bool McasDcas::dcas_view(Word& a, Word& b, std::uint64_t& oa,
                         std::uint64_t& ob, std::uint64_t na,
                         std::uint64_t nb) noexcept {
  for (;;) {
    if (dcas(a, b, oa, ob, na, nb)) return true;
    std::uint64_t va, vb;
    snapshot(a, b, va, vb);
    if (va == oa && vb == ob) {
      // The failure was transient (a competing operation was mid-flight at
      // decision time but the words have returned to the expected pair);
      // by DCAS semantics this counts as "should have succeeded", so retry.
      continue;
    }
    oa = va;
    ob = vb;
    return false;
  }
}

}  // namespace dcd::dcas
