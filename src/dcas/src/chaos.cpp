#include "dcd/dcas/chaos.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::dcas {

namespace {

// Bridges reclaim::magazine_hook() (the reclaim layer cannot see chaos)
// to the active controller. Installed on first controller construction and
// left in place: with no controller it is one acquire() check, and the
// magazine only fires it on refill/flush slow paths.
void magazine_trampoline(const char* point) {
  if (ChaosController* c = ChaosController::acquire()) {
    c->notify(point);
    ChaosController::unpin();
  }
}

// FNV-1a fold of one decision word into a running digest.
constexpr std::uint64_t fnv1a(std::uint64_t digest, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
  return digest;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

}  // namespace

const char* shape_name(DcasShape s) noexcept {
  switch (s) {
    case DcasShape::kGeneric: return sync_point::kDcasAny;
    case DcasShape::kEmptyConfirm: return sync_point::kEmptyConfirm;
    case DcasShape::kPopCommit: return sync_point::kPopCommit;
    case DcasShape::kLogicalDelete: return sync_point::kLogicalDelete;
    case DcasShape::kSplice: return sync_point::kSplice;
    case DcasShape::kTwoNullSplice: return sync_point::kTwoNullSplice;
    case DcasShape::kCount_: break;
  }
  return "?";
}

bool is_sync_point(const char* point) noexcept {
  namespace sp = sync_point;
  for (const char* known :
       {sp::kDcasAny, sp::kEmptyConfirm, sp::kPopCommit, sp::kLogicalDelete,
        sp::kSplice, sp::kTwoNullSplice, sp::kMagazineRefill,
        sp::kMagazineFlush, sp::kExecSteal, sp::kExecPark,
        sp::kExecInject}) {
    if (std::strcmp(point, known) == 0) return true;
  }
  return false;
}

ChaosSchedule ChaosSchedule::from_seed(std::uint64_t seed) noexcept {
  // Expand the seed through SplitMix64 so nearby seeds give unrelated
  // parameters; keep the ranges mild enough that chaos suites still finish
  // quickly under sanitizers.
  util::SplitMix64 sm(seed);
  ChaosSchedule s;
  s.seed = seed;
  s.delay_per_mille = 20 + static_cast<std::uint32_t>(sm.next() % 80);
  s.max_delay_spins = 16u << (sm.next() % 5);  // 16..256
  s.dcas_fail_per_mille = 10 + static_cast<std::uint32_t>(sm.next() % 90);
  return s;
}

std::string ChaosSchedule::describe() const {
  return "chaos{seed=" + std::to_string(seed) +
         ", delay=" + std::to_string(delay_per_mille) + "/1000*" +
         std::to_string(max_delay_spins) +
         ", dcas_fail=" + std::to_string(dcas_fail_per_mille) + "/1000}";
}

std::uint64_t chaos_seed_from_env(std::uint64_t fallback) noexcept {
  const char* v = std::getenv("DCD_CHAOS_SEED");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 0);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::atomic<ChaosController*> ChaosController::active_{nullptr};
std::atomic<std::size_t> ChaosController::pins_{0};

struct ChaosController::Impl {
  struct Rule {
    const char* point = nullptr;
    std::uint64_t nth = 0;                  // 1-based hit index to trap
    std::atomic<std::uint64_t> hits{0};
    // 0 = armed, 1 = a thread is parked here, 2 = released.
    std::atomic<int> state{0};
  };

  // Per-thread injection state, owned exclusively by its registry slot.
  struct alignas(util::kCacheLineSize) ThreadState {
    util::Xoshiro256 rng{0};
    std::uint64_t fingerprint = kFnvOffset;
    bool initialised = false;
  };

  explicit Impl(const ChaosSchedule& s) : schedule(s) {}

  ThreadState& self() {
    ThreadState& t = threads[util::ThreadRegistry::self()];
    if (!t.initialised) {
      t.rng = util::Xoshiro256(schedule.seed * 0x9e3779b97f4a7c15ull +
                               util::ThreadRegistry::self() + 1);
      t.fingerprint = kFnvOffset;
      t.initialised = true;
    }
    return t;
  }

  // Spin (never block) so delays perturb timing without hiding the
  // algorithms' own progress behaviour.
  void maybe_delay(ThreadState& t) {
    if (schedule.delay_per_mille == 0) return;
    if (!t.rng.chance(schedule.delay_per_mille, 1000)) {
      t.fingerprint = fnv1a(t.fingerprint, 0);
      return;
    }
    const std::uint64_t spins = t.rng.below(schedule.max_delay_spins);
    t.fingerprint = fnv1a(t.fingerprint, (spins << 1) | 1);
    delays.fetch_add(1, std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < spins; ++i) util::cpu_relax();
  }

  void fire(const char* point) {
    // DCD_HB(chaos.rules.publish, role=acquire)
    const std::size_t n = rule_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < n; ++i) {
      Rule& r = rules[i];
      if (std::strcmp(point, r.point) != 0) continue;
      const std::uint64_t hit =
          r.hits.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (hit != r.nth) continue;
      std::unique_lock<std::mutex> lk(mu);
      // A rule released before its nth hit is spent, not re-armed.
      // DCD_HB(chaos.rule.fire, role=acquire)
      if (shutting_down || r.state.load(std::memory_order_acquire) == 2) {
        continue;
      }
      // DCD_HB(chaos.rule.fire, role=release)
      r.state.store(1, std::memory_order_release);
      cv.notify_all();
      cv.wait(lk, [&] {
        return r.state.load(std::memory_order_acquire) == 2 || shutting_down;
      });
    }
  }

  ChaosSchedule schedule;
  Rule rules[kMaxRules];
  std::atomic<std::size_t> rule_count{0};
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool shutting_down = false;

  std::atomic<std::uint64_t> attempts[kDcasShapeCount] = {};
  std::atomic<std::uint64_t> successes[kDcasShapeCount] = {};
  std::atomic<std::uint64_t> forced_failures{0};
  std::atomic<std::uint64_t> delays{0};

  ThreadState threads[util::ThreadRegistry::kMaxThreads];
};

ChaosController::ChaosController(const ChaosSchedule& schedule)
    : impl_(new Impl(schedule)), schedule_(schedule) {
  // DCD_HB(magazine.hook.install, role=release)
  reclaim::magazine_hook().store(&magazine_trampoline,
                                 std::memory_order_release);
  ChaosController* expected = nullptr;
  // DCD_SYNC(policy-internal)
  // DCD_HB(chaos.controller.install, role=release)
  const bool installed = active_.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel);
  DCD_ASSERT(installed && "only one ChaosController may be active");
  (void)installed;
}

ChaosController::~ChaosController() {
  // Uninstall first so no new call pins us, then wake every thread still
  // blocked at a sync point (the "killed" ones), then wait for all pinned
  // calls — including the just-woken ones — to drain before freeing Impl.
  active_.store(nullptr, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->shutting_down = true;
    for (std::size_t i = 0; i < kMaxRules; ++i) {
      impl_->rules[i].state.store(2, std::memory_order_release);
    }
  }
  impl_->cv.notify_all();
  // DCD_HB(chaos.pin.teardown, role=acquire)
  while (pins_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  delete impl_;
}

std::size_t ChaosController::arm_park(const char* point, std::uint64_t nth) {
  const std::size_t i =
      impl_->rule_count.load(std::memory_order_relaxed);
  DCD_ASSERT(i < kMaxRules);
  DCD_ASSERT(nth >= 1);
  DCD_ASSERT(is_sync_point(point));
  impl_->rules[i].point = point;
  impl_->rules[i].nth = nth;
  // DCD_HB(chaos.rules.publish, role=release)
  impl_->rule_count.store(i + 1, std::memory_order_release);
  return i;
}

bool ChaosController::parked(std::size_t r) const {
  return impl_->rules[r].state.load(std::memory_order_acquire) == 1;
}

bool ChaosController::wait_parked(std::size_t r,
                                  std::uint64_t timeout_ms) const {
  std::unique_lock<std::mutex> lk(impl_->mu);
  return impl_->cv.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    return impl_->rules[r].state.load(std::memory_order_acquire) == 1;
  });
}

void ChaosController::release(std::size_t r) {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->rules[r].state.store(2, std::memory_order_release);
  }
  impl_->cv.notify_all();
}

void ChaosController::release_all() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (std::size_t i = 0; i < kMaxRules; ++i) {
      impl_->rules[i].state.store(2, std::memory_order_release);
    }
  }
  impl_->cv.notify_all();
}

std::uint64_t ChaosController::attempts(DcasShape s) const noexcept {
  // DCD_HB_EXEMPT(telemetry snapshot read after the workload quiesces; no edge claimed)
  return impl_->attempts[static_cast<std::size_t>(s)].load(
      std::memory_order_acquire);
}

std::uint64_t ChaosController::successes(DcasShape s) const noexcept {
  // DCD_HB_EXEMPT(telemetry snapshot read after the workload quiesces; no edge claimed)
  return impl_->successes[static_cast<std::size_t>(s)].load(
      std::memory_order_acquire);
}

std::uint64_t ChaosController::forced_failures() const noexcept {
  // DCD_HB_EXEMPT(telemetry snapshot read after the workload quiesces; no edge claimed)
  return impl_->forced_failures.load(std::memory_order_acquire);
}

std::uint64_t ChaosController::delays_injected() const noexcept {
  // DCD_HB_EXEMPT(telemetry snapshot read after the workload quiesces; no edge claimed)
  return impl_->delays.load(std::memory_order_acquire);
}

std::uint64_t ChaosController::fingerprint() const noexcept {
  std::uint64_t fp = 0;
  for (const Impl::ThreadState& t : impl_->threads) {
    if (t.initialised) fp ^= t.fingerprint;
  }
  return fp;
}

void ChaosController::on_load() noexcept {
  impl_->maybe_delay(impl_->self());
}

void ChaosController::before_dcas(DcasShape s) noexcept {
  Impl::ThreadState& t = impl_->self();
  t.fingerprint = fnv1a(t.fingerprint, static_cast<std::uint64_t>(s) | 0x10);
  impl_->attempts[static_cast<std::size_t>(s)].fetch_add(
      1, std::memory_order_relaxed);
  impl_->maybe_delay(t);
  switch (s) {
    case DcasShape::kEmptyConfirm:
    case DcasShape::kSplice:
    case DcasShape::kTwoNullSplice:
      impl_->fire(shape_name(s));
      break;
    default:
      break;
  }
  impl_->fire(sync_point::kDcasAny);
}

bool ChaosController::maybe_force_fail(DcasShape s) noexcept {
  if (impl_->schedule.dcas_fail_per_mille == 0) return false;
  Impl::ThreadState& t = impl_->self();
  const bool fail = t.rng.chance(impl_->schedule.dcas_fail_per_mille, 1000);
  t.fingerprint = fnv1a(t.fingerprint,
                        (static_cast<std::uint64_t>(s) << 1) | (fail ? 1 : 0));
  if (fail) impl_->forced_failures.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

void ChaosController::after_dcas(DcasShape s, bool ok) noexcept {
  if (!ok) return;
  impl_->successes[static_cast<std::size_t>(s)].fetch_add(
      1, std::memory_order_relaxed);
  switch (s) {
    case DcasShape::kPopCommit:
    case DcasShape::kLogicalDelete:
      impl_->fire(shape_name(s));
      break;
    default:
      break;
  }
}

void ChaosController::notify(const char* point) noexcept {
  impl_->fire(point);
}

}  // namespace dcd::dcas
