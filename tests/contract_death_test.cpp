// Contract violations must abort loudly (DCD_ASSERT is always on — see
// util/assert.hpp for why release builds keep these checks).
#include <gtest/gtest.h>

#include <cstdint>

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/mcas.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/reclaim/node_pool.hpp"

namespace {

using namespace dcd;

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, CodecRejectsOversizedPayload) {
  using C = deque::ValueCodec<std::uint64_t>;
  EXPECT_DEATH((void)C::encode(1ull << 62), "assertion failed");
}

TEST(ContractDeathTest, CodecRejectsMisalignedPointer) {
  using C = deque::ValueCodec<char*>;
  alignas(8) static char buf[16];
  EXPECT_EQ(C::decode(C::encode(&buf[0])), &buf[0]);  // aligned: fine
  EXPECT_DEATH((void)C::encode(&buf[1]), "assertion failed");
}

TEST(ContractDeathTest, ArrayDequeRejectsZeroCapacity) {
  using D = deque::ArrayDeque<std::uint64_t, dcas::GlobalLockDcas>;
  EXPECT_DEATH(D d(0), "assertion failed");
}

TEST(ContractDeathTest, NodePoolRejectsZeroCapacity) {
  EXPECT_DEATH(reclaim::NodePool pool(64, 0), "assertion failed");
}

TEST(ContractDeathTest, McasRejectsAliasedWords) {
  dcas::Word w(dcas::encode_payload(1));
  EXPECT_DEATH((void)dcas::McasDcas::dcas(w, w, 0, 0, 0, 0),
               "assertion failed");
}

TEST(ContractDeathTest, ArmParkRejectsUnknownSyncPoint) {
  // A typo'd point would arm a rule that never fires; the roster check in
  // arm_park turns it into an abort at the call site.
  EXPECT_DEATH(
      {
        dcas::ChaosController chaos(dcas::ChaosSchedule{});
        (void)chaos.arm_park("pop.logical_delte", 1);
      },
      "assertion failed");
  EXPECT_TRUE(dcas::is_sync_point(dcas::sync_point::kLogicalDelete));
  EXPECT_FALSE(dcas::is_sync_point("pop.logical_delte"));
}

}  // namespace
