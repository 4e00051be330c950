// ChaosDcas fault-injection layer: shape classification, schedule
// determinism / replay, forced-failure semantics, park/release/kill.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/global_lock.hpp"
#include "dcd/dcas/mcas.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/reclaim/magazine_pool.hpp"

namespace {

using namespace dcd::dcas;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

// A schedule with every probabilistic fault off — park rules only.
ChaosSchedule quiet_schedule(std::uint64_t seed = 1) {
  ChaosSchedule s;
  s.seed = seed;
  s.delay_per_mille = 0;
  s.max_delay_spins = 0;
  s.dcas_fail_per_mille = 0;
  return s;
}

// --- shape classification --------------------------------------------------

TEST(ClassifyDcas, IdentityIsEmptyConfirm) {
  // Lines 17-18 / line 5-style boundary confirmation: old == new.
  EXPECT_EQ(classify_dcas(val(1), kNull, val(1), kNull),
            DcasShape::kEmptyConfirm);
}

TEST(ClassifyDcas, PopCommitNullsTheCell) {
  // Array pop: index moves, popped cell becomes null.
  EXPECT_EQ(classify_dcas(val(1), val(2), val(3), kNull),
            DcasShape::kPopCommit);
}

TEST(ClassifyDcas, LogicalDeleteSetsDeletedBitAndNullsValue) {
  // List pop: sentinel pointer word gains the deleted bit, value nulled.
  const std::uint64_t ptr_plain = 0x1000;
  const std::uint64_t ptr_deleted = 0x1000 | kDeletedBit;
  EXPECT_EQ(classify_dcas(ptr_plain, val(7), ptr_deleted, kNull),
            DcasShape::kLogicalDelete);
}

TEST(ClassifyDcas, SpliceHasOneDeletedOperand) {
  const std::uint64_t del = 0x1000 | kDeletedBit;
  EXPECT_EQ(classify_dcas(del, 0x2000, 0x3000, 0x3000 | 1),
            DcasShape::kSplice);
  EXPECT_EQ(classify_dcas(0x2000, del, 0x3000, 0x3000 | 1),
            DcasShape::kSplice);
}

TEST(ClassifyDcas, TwoNullSpliceHasBothDeleted) {
  // Figure 16: both sentinel words point at logically deleted nodes.
  const std::uint64_t del_a = 0x1000 | kDeletedBit;
  const std::uint64_t del_b = 0x2000 | kDeletedBit;
  EXPECT_EQ(classify_dcas(del_a, del_b, 0x3000, 0x4000),
            DcasShape::kTwoNullSplice);
}

TEST(ClassifyDcas, PushesAreGeneric) {
  EXPECT_EQ(classify_dcas(val(1), kNull, val(1), val(9)),
            DcasShape::kGeneric);
}

// --- schedule determinism --------------------------------------------------

TEST(ChaosSchedule, FromSeedIsPure) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, ~0ull}) {
    const ChaosSchedule a = ChaosSchedule::from_seed(seed);
    const ChaosSchedule b = ChaosSchedule::from_seed(seed);
    EXPECT_EQ(a.delay_per_mille, b.delay_per_mille);
    EXPECT_EQ(a.max_delay_spins, b.max_delay_spins);
    EXPECT_EQ(a.dcas_fail_per_mille, b.dcas_fail_per_mille);
    EXPECT_EQ(a.describe(), b.describe());
  }
}

TEST(ChaosSchedule, NearbySeedsDecorrelate) {
  const ChaosSchedule a = ChaosSchedule::from_seed(1);
  const ChaosSchedule b = ChaosSchedule::from_seed(2);
  EXPECT_NE(a.describe(), b.describe());
}

TEST(ChaosSchedule, SeedFromEnvParsesAndFallsBack) {
  ASSERT_EQ(unsetenv("DCD_CHAOS_SEED"), 0);
  EXPECT_EQ(chaos_seed_from_env(7), 7u);
  ASSERT_EQ(setenv("DCD_CHAOS_SEED", "123", 1), 0);
  EXPECT_EQ(chaos_seed_from_env(7), 123u);
  ASSERT_EQ(setenv("DCD_CHAOS_SEED", "0x10", 1), 0);
  EXPECT_EQ(chaos_seed_from_env(7), 16u);
  ASSERT_EQ(setenv("DCD_CHAOS_SEED", "bogus", 1), 0);
  EXPECT_EQ(chaos_seed_from_env(7), 7u);
  ASSERT_EQ(unsetenv("DCD_CHAOS_SEED"), 0);
}

// --- delegation ------------------------------------------------------------

TEST(ChaosDcasWrapper, DelegatesWithNoControllerInstalled) {
  using P = ChaosDcas<GlobalLockDcas>;
  ASSERT_EQ(ChaosController::active(), nullptr);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  EXPECT_EQ(P::load(a), val(1));
  EXPECT_TRUE(P::cas(a, val(1), val(3)));
  EXPECT_TRUE(P::dcas(a, b, val(3), val(2), val(4), val(5)));
  EXPECT_FALSE(P::dcas(a, b, val(3), val(2), val(9), val(9)));
  std::uint64_t oa = 0, ob = 0;
  EXPECT_FALSE(P::dcas_view(a, b, oa, ob, val(6), val(7)));
  EXPECT_EQ(oa, val(4));
  EXPECT_EQ(ob, val(5));
}

// --- forced failures -------------------------------------------------------

TEST(ChaosDcasWrapper, ForcedFailureLeavesMemoryUntouched) {
  using P = ChaosDcas<McasDcas>;
  ChaosSchedule s = quiet_schedule(9);
  s.dcas_fail_per_mille = 1000;  // every boolean DCAS spuriously fails
  ChaosController chaos(s);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(P::dcas(a, b, val(1), val(2), val(3), val(4)));
  }
  EXPECT_EQ(P::load(a), val(1));
  EXPECT_EQ(P::load(b), val(2));
  EXPECT_EQ(chaos.forced_failures(), 10u);
  EXPECT_EQ(chaos.attempts(DcasShape::kGeneric), 10u);
  EXPECT_EQ(chaos.successes(DcasShape::kGeneric), 0u);
}

TEST(ChaosDcasWrapper, ViewFormIsNeverForceFailed) {
  // dcas_view's failure contract hands back an atomic snapshot the caller
  // acts on (the lines-17/18 paths); a fake failure cannot produce one, so
  // the wrapper must not inject there even at p = 1.
  using P = ChaosDcas<McasDcas>;
  ChaosSchedule s = quiet_schedule(9);
  s.dcas_fail_per_mille = 1000;
  ChaosController chaos(s);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  std::uint64_t oa = val(1), ob = val(2);
  EXPECT_TRUE(P::dcas_view(a, b, oa, ob, val(3), val(4)));
  EXPECT_EQ(P::load(a), val(3));
  EXPECT_EQ(chaos.forced_failures(), 0u);
}

TEST(ChaosDcasWrapper, SingleWordCasPassesThroughAnInstalledController) {
  // LFRC's counts and slots use P::cas; with a controller armed to fail
  // every DCAS and park at every dcas.any, a CAS still neither fails
  // spuriously, parks, nor counts as a DCAS attempt.
  using P = ChaosDcas<McasDcas>;
  ChaosSchedule s = quiet_schedule(9);
  s.dcas_fail_per_mille = 1000;
  ChaosController chaos(s);
  const std::size_t rule = chaos.arm_park(sync_point::kDcasAny, 1);
  Word a;
  P::store_init(a, val(1));
  EXPECT_TRUE(P::cas(a, val(1), val(2)));
  EXPECT_FALSE(P::cas(a, val(1), val(3)));
  EXPECT_EQ(P::load(a), val(2));
  EXPECT_FALSE(chaos.parked(rule));
  EXPECT_EQ(chaos.forced_failures(), 0u);
  EXPECT_EQ(chaos.attempts(DcasShape::kGeneric), 0u);
}

// --- replay determinism ----------------------------------------------------

// A fixed single-threaded op sequence; the injected-decision fingerprint
// must be a pure function of the schedule seed.
std::uint64_t fingerprint_of_run(std::uint64_t seed) {
  using P = ChaosDcas<GlobalLockDcas>;
  const ChaosSchedule s = ChaosSchedule::from_seed(seed);
  ChaosController chaos(s);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  std::uint64_t x = 1, y = 2;
  for (int i = 0; i < 200; ++i) {
    (void)P::load(a);
    if (P::dcas(a, b, val(x), val(y), val(x + 1), val(y + 1))) {
      ++x;
      ++y;
    }
    std::uint64_t oa = val(x), ob = val(y);
    (void)P::dcas_view(a, b, oa, ob, val(x), val(y));
  }
  return chaos.fingerprint();
}

TEST(ChaosReplay, SameSeedSameFingerprint) {
  EXPECT_EQ(fingerprint_of_run(42), fingerprint_of_run(42));
  EXPECT_EQ(fingerprint_of_run(7), fingerprint_of_run(7));
}

TEST(ChaosReplay, DifferentSeedDifferentFingerprint) {
  EXPECT_NE(fingerprint_of_run(42), fingerprint_of_run(43));
}

// --- park / release / kill -------------------------------------------------

TEST(ChaosPark, ParkAtNthHitThenRelease) {
  using P = ChaosDcas<GlobalLockDcas>;
  ChaosController chaos(quiet_schedule());
  const std::size_t rule = chaos.arm_park(sync_point::kDcasAny, 1);

  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  std::thread worker([&] {
    EXPECT_TRUE(P::dcas(a, b, val(1), val(2), val(3), val(4)));
  });
  ASSERT_TRUE(chaos.wait_parked(rule, 5000));
  EXPECT_TRUE(chaos.parked(rule));
  // The DCAS has not executed yet — the park is *before* the attempt.
  EXPECT_EQ(GlobalLockDcas::load(a), val(1));
  chaos.release(rule);
  worker.join();
  EXPECT_EQ(GlobalLockDcas::load(a), val(3));
  EXPECT_FALSE(chaos.parked(rule));
  EXPECT_EQ(chaos.successes(DcasShape::kGeneric), 1u);
}

TEST(ChaosPark, MagazineRefillParksThroughTheInstalledHook) {
  // The reclaim layer cannot call the chaos registry directly (layering:
  // dcd_dcas links dcd_reclaim); the controller installs a trampoline into
  // reclaim::magazine_hook(). A park armed on magazine.refill must
  // therefore trap a thread inside MagazinePool::allocate's refill window
  // — while it holds its own magazine's try-lock, which other threads
  // bypass by falling through to the shared pool.
  ChaosController chaos(quiet_schedule());
  const std::size_t rule = chaos.arm_park(sync_point::kMagazineRefill, 1);
  dcd::reclaim::MagazinePool pool(16, 8, /*batch=*/4);
  void* got = nullptr;
  std::thread worker([&] { got = pool.allocate(); });
  ASSERT_TRUE(chaos.wait_parked(rule, 5000));
  // The parked thread blocks its own magazine only; the shared list still
  // serves this thread directly.
  void* p = pool.allocate();
  EXPECT_NE(p, nullptr);
  chaos.release(rule);
  worker.join();
  EXPECT_NE(got, nullptr);
  EXPECT_NE(got, p);
  EXPECT_GE(pool.stats().refills, 1u);
}

TEST(ChaosPark, SpentRuleDoesNotTrapLaterHits) {
  using P = ChaosDcas<GlobalLockDcas>;
  ChaosController chaos(quiet_schedule());
  const std::size_t rule = chaos.arm_park(sync_point::kDcasAny, 1);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  std::thread worker([&] { P::dcas(a, b, val(1), val(2), val(3), val(4)); });
  ASSERT_TRUE(chaos.wait_parked(rule, 5000));
  chaos.release(rule);
  worker.join();
  // Subsequent hits of the same point run straight through.
  EXPECT_TRUE(P::dcas(a, b, val(3), val(4), val(5), val(6)));
  EXPECT_EQ(P::load(a), val(5));
}

TEST(ChaosPark, KilledThreadIsDrainedByTeardown) {
  // A park the test never releases models a thread dying at the sync
  // point; controller teardown must wake it and wait for it to finish the
  // call it was parked inside before freeing state.
  using P = ChaosDcas<GlobalLockDcas>;
  auto* chaos = new ChaosController(quiet_schedule());
  const std::size_t rule = chaos->arm_park(sync_point::kDcasAny, 1);
  Word a, b;
  P::store_init(a, val(1));
  P::store_init(b, val(2));
  std::thread victim([&] {
    EXPECT_TRUE(P::dcas(a, b, val(1), val(2), val(3), val(4)));
  });
  ASSERT_TRUE(chaos->wait_parked(rule, 5000));
  delete chaos;  // never released: teardown wakes and drains the victim
  victim.join();
  EXPECT_EQ(GlobalLockDcas::load(a), val(3));
  EXPECT_EQ(ChaosController::active(), nullptr);
}

TEST(ChaosPark, SecondControllerInstallsAfterFirstDies) {
  { ChaosController first(quiet_schedule(1)); }
  ChaosController second(quiet_schedule(2));
  EXPECT_EQ(ChaosController::active(), &second);
}

TEST(ChaosPark, EveryShapePointIsOnTheRoster) {
  // Replay files park at shape names; each must pass arm_park's check.
  for (std::size_t s = 0; s < kDcasShapeCount; ++s) {
    EXPECT_TRUE(is_sync_point(shape_name(static_cast<DcasShape>(s)))) << s;
  }
}

}  // namespace
