// LFRC (the authors' [12] methodology): count discipline, the DCAS-based
// load race closure, and the demonstration stack's conservation + absence
// of leaks, across DCAS policies.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "dcd/reclaim/lfrc.hpp"
#include "dcd/reclaim/tagged_pool.hpp"
#include "dcd/util/sanitizer.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"

namespace {

using namespace dcd::reclaim;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;

std::atomic<std::int64_t> g_live{0};

template <typename P>
struct Obj {
  dcd::dcas::Word rc;
  dcd::dcas::Word child;  // optional outgoing LFRC slot
  std::uint64_t tag;

  explicit Obj(std::uint64_t t) : tag(t) {
    Lfrc<Obj, P>::init_count(this);
    P::store_init(child, 0);
    g_live.fetch_add(1);
  }
  ~Obj() { g_live.fetch_sub(1); }
  // Heap-backed dispose: fine for the sequential tests, which never race a
  // load against a free (the concurrency test below uses pooled storage,
  // per LFRC's type-stability requirement).
  void lfrc_dispose() {
    Obj* c = Lfrc<Obj, P>::decode(P::load(child));
    P::store_init(child, 0);
    delete this;
    Lfrc<Obj, P>::destroy(c);
  }
};

// Pool-backed object for tests that race loads against frees.
template <typename P>
struct PoolObj {
  void* pool_link;  // the pool's free-list link while the object is free
  dcd::dcas::Word rc;
  std::uint64_t tag;

  static dcd::reclaim::TaggedNodePool& pool() {
    static dcd::reclaim::TaggedNodePool p(sizeof(PoolObj), 1 << 12);
    return p;
  }
  static PoolObj* make(std::uint64_t t) {
    void* raw = pool().allocate();
    if (raw == nullptr) return nullptr;
    // Storage reuse without construction (stale readers may probe rc; all
    // re-init of probed words is atomic).
    auto* o = static_cast<PoolObj*>(raw);
    o->tag = t;
    Lfrc<PoolObj, P>::init_count(o);
    g_live.fetch_add(1);
    return o;
  }
  void lfrc_dispose() {
    g_live.fetch_sub(1);
    tag = 0;
    pool().deallocate(this);
  }
};

template <typename P>
class LfrcTest : public ::testing::Test {
 protected:
  using O = Obj<P>;
  using R = Lfrc<O, P>;

  void SetUp() override { g_live.store(0); }
  void TearDown() override { EXPECT_EQ(g_live.load(), 0) << "leak"; }
};

using Policies = ::testing::Types<GlobalLockDcas, StripedLockDcas, McasDcas>;
TYPED_TEST_SUITE(LfrcTest, Policies);

TYPED_TEST(LfrcTest, CreateDestroy) {
  using R = typename TestFixture::R;
  auto* o = new typename TestFixture::O(1);
  EXPECT_EQ(R::count(o), 1);
  R::destroy(o);
}

TYPED_TEST(LfrcTest, CopyBumpsAndDestroyDrops) {
  using R = typename TestFixture::R;
  auto* o = new typename TestFixture::O(1);
  auto* c = R::copy(o);
  EXPECT_EQ(c, o);
  EXPECT_EQ(R::count(o), 2);
  R::destroy(c);
  EXPECT_EQ(R::count(o), 1);
  R::destroy(o);
}

TYPED_TEST(LfrcTest, LoadFromSlotAcquiresUnit) {
  using R = typename TestFixture::R;
  dcd::dcas::Word slot;
  TypeParam::store_init(slot, 0);
  EXPECT_EQ(R::load(slot), nullptr);

  auto* o = new typename TestFixture::O(7);
  ASSERT_TRUE(R::cas(slot, nullptr, o));  // slot takes its own unit
  EXPECT_EQ(R::count(o), 2);
  auto* l = R::load(slot);
  EXPECT_EQ(l, o);
  EXPECT_EQ(R::count(o), 3);
  R::destroy(l);
  // Clear the slot (drops its unit), then our creation unit.
  ASSERT_TRUE(R::cas(slot, o, nullptr));
  EXPECT_EQ(R::count(o), 1);
  R::destroy(o);
}

TYPED_TEST(LfrcTest, CasFailureRollsBack) {
  using R = typename TestFixture::R;
  auto* a = new typename TestFixture::O(1);
  auto* b = new typename TestFixture::O(2);
  dcd::dcas::Word slot;
  TypeParam::store_init(slot, 0);
  ASSERT_TRUE(R::cas(slot, nullptr, a));
  EXPECT_FALSE(R::cas(slot, b, a));  // expected mismatch
  EXPECT_EQ(R::count(a), 2);
  EXPECT_EQ(R::count(b), 1);
  ASSERT_TRUE(R::cas(slot, a, nullptr));
  R::destroy(a);
  R::destroy(b);
}

TYPED_TEST(LfrcTest, ReleaseCascadesThroughChildren) {
  using R = typename TestFixture::R;
  auto* parent = new typename TestFixture::O(1);
  auto* child = new typename TestFixture::O(2);
  R::store_private(parent->child, child);  // transfers our unit on child
  EXPECT_EQ(R::count(child), 1);
  R::destroy(parent);  // must free both
  EXPECT_EQ(g_live.load(), 0);
}

TYPED_TEST(LfrcTest, ConcurrentLoadersNeverSeeFreedObjects) {
  // Writers continually replace the slot's object; readers LFRC-load and
  // validate a canary. Counts keep every observed object alive; storage is
  // pool-backed (type-stable), as LFRC requires.
  using O = PoolObj<TypeParam>;
  using R = Lfrc<O, TypeParam>;
  dcd::dcas::Word slot;
  TypeParam::store_init(slot, 0);
  {
    auto* first = O::make(0xfeedface);
    ASSERT_TRUE(R::cas(slot, nullptr, first));
    R::destroy(first);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        O* o = R::load(slot);
        if (o != nullptr) {
          if (o->tag != 0xfeedface) bad.fetch_add(1);
          R::destroy(o);
        }
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    auto* fresh = O::make(0xfeedface);
    ASSERT_NE(fresh, nullptr);
    // Swap whatever is there for fresh.
    for (;;) {
      O* cur = R::load(slot);
      const bool ok = R::cas(slot, cur, fresh);
      R::destroy(cur);
      if (ok) break;
    }
    R::destroy(fresh);
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(bad.load(), 0u);
  // Tear down the slot's final object.
  O* last = R::load(slot);
  ASSERT_TRUE(R::cas(slot, last, nullptr));
  R::destroy(last);
}

// --- the demonstration stack -------------------------------------------------

template <typename P>
class LfrcStackTest : public ::testing::Test {};
TYPED_TEST_SUITE(LfrcStackTest, Policies);

TYPED_TEST(LfrcStackTest, SequentialLifo) {
  LfrcStack<std::uint64_t, TypeParam> s;
  EXPECT_TRUE(s.empty());
  for (std::uint64_t i = 0; i < 100; ++i) s.push(i);
  std::uint64_t v;
  for (std::uint64_t i = 100; i-- > 0;) {
    ASSERT_TRUE(s.pop(&v));
    ASSERT_EQ(v, i);
  }
  EXPECT_FALSE(s.pop(&v));
  EXPECT_TRUE(s.empty());
}

TYPED_TEST(LfrcStackTest, DestructorDrainsWithoutLeaks) {
  g_live.store(0);  // Obj counter unused here; rely on heap sanity
  {
    LfrcStack<std::uint64_t, TypeParam> s;
    for (std::uint64_t i = 0; i < 5000; ++i) s.push(i);
  }
  SUCCEED();
}

TYPED_TEST(LfrcStackTest, ConcurrentConservation) {
  LfrcStack<std::uint64_t, TypeParam> s;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 4000;
  std::vector<std::vector<std::uint64_t>> popped(kThreads);
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      dcd::util::Xoshiro256 rng(t + 1);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPer; ++i) {
        if (rng.chance(1, 2)) {
          s.push((static_cast<std::uint64_t>(t) << 32) | i);
        } else {
          std::uint64_t v;
          if (s.pop(&v)) popped[t].push_back(v);
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  std::map<std::uint64_t, int> counts;
  for (auto& vec : popped) {
    for (const std::uint64_t v : vec) ++counts[v];
  }
  std::uint64_t v;
  while (s.pop(&v)) ++counts[v];
  for (const auto& [val, n] : counts) {
    ASSERT_EQ(n, 1) << "value " << val << " duplicated";
  }
}

}  // namespace
