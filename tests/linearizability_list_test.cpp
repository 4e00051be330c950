// Theorem 4.1, checked empirically: recorded concurrent histories of the
// list deque must linearize against the *unbounded* deque spec.
#include <gtest/gtest.h>

#include <cstdint>

#include "dcd/deque/list_deque.hpp"
#include "dcd/verify/driver.hpp"
#include "dcd/verify/linearizability.hpp"

namespace {

using namespace dcd::deque;
using namespace dcd::verify;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;
using dcd::reclaim::EbrReclaim;
using dcd::reclaim::LeakyReclaim;

template <typename P, typename R>
struct Cfg {
  using Policy = P;
  using Reclaim = R;
};

template <typename C>
class ListLinTest : public ::testing::Test {
 protected:
  using Deque =
      ListDeque<std::uint64_t, typename C::Policy, typename C::Reclaim>;

  void check_rounds(const WorkloadConfig& base, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      Deque d(1 << 12);
      WorkloadConfig cfg = base;
      cfg.seed = base.seed + static_cast<std::uint64_t>(r) * 7919;
      const History h = run_recorded(d, cfg);
      const CheckResult res = check_linearizable(h, SpecDeque::kUnbounded);
      ASSERT_EQ(res.verdict, Verdict::kLinearizable)
          << "round " << r << " (seed " << cfg.seed << "): " << res.message;
    }
  }
};

using Configs = ::testing::Types<
    Cfg<GlobalLockDcas, EbrReclaim>, Cfg<StripedLockDcas, EbrReclaim>,
    Cfg<McasDcas, EbrReclaim>, Cfg<McasDcas, LeakyReclaim>>;
TYPED_TEST_SUITE(ListLinTest, Configs);

TYPED_TEST(ListLinTest, TwoThreadsBalanced) {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 12;
  cfg.seed = 11;
  this->check_rounds(cfg, 40);
}

TYPED_TEST(ListLinTest, PopHeavyHammersDeletedStates) {
  // Keeps the deque around the Figure 9/16 configurations where logically
  // deleted nodes linger and both delete paths race.
  WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 10;
  cfg.seed = 22;
  cfg.push_right = 1;
  cfg.push_left = 1;
  cfg.pop_right = 4;
  cfg.pop_left = 4;
  this->check_rounds(cfg, 30);
}

TYPED_TEST(ListLinTest, RightEndOnlySameEndContention) {
  // Every op on one end: all threads contend for the right sentinel's
  // DCAS, and pops race the pushes that follow their logical deletes.
  WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 10;
  cfg.seed = 66;
  cfg.push_right = 4;
  cfg.pop_right = 4;
  cfg.push_left = 0;
  cfg.pop_left = 0;
  this->check_rounds(cfg, 40);
}

TYPED_TEST(ListLinTest, ThreeThreadsMixed) {
  WorkloadConfig cfg;
  cfg.threads = 3;
  cfg.ops_per_thread = 9;
  cfg.seed = 33;
  this->check_rounds(cfg, 30);
}

TYPED_TEST(ListLinTest, FourThreadsShortBursts) {
  WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 6;
  cfg.seed = 44;
  this->check_rounds(cfg, 25);
}

}  // namespace
