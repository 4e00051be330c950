// Multi-phase fuzzing with seed replay.
//
// Each scenario alternates sequential prefixes (checked exactly against
// SpecDeque) with concurrent bursts (checked for conservation + RepInv +
// linearizability of the recorded window). Any failure message carries the
// scenario seed, so a red run is replayable with
//   --gtest_filter='Fuzz*' plus the seed printed in the assertion.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/mc/replay.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/verify/driver.hpp"
#include "dcd/verify/linearizability.hpp"

namespace {

using namespace dcd::deque;
using namespace dcd::verify;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;

// Applies a random sequential burst to both impl and spec; returns false on
// divergence.
template <typename D>
bool sequential_phase(D& impl, SpecDeque& spec, dcd::util::Xoshiro256& rng,
                      std::size_t ops, std::string& why) {
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t v = 1 + rng.below(1u << 16);
    switch (rng.below(4)) {
      case 0:
        if (impl.push_right(v) != spec.push_right(v)) {
          why = "push_right divergence";
          return false;
        }
        break;
      case 1:
        if (impl.push_left(v) != spec.push_left(v)) {
          why = "push_left divergence";
          return false;
        }
        break;
      case 2:
        if (impl.pop_right() != spec.pop_right()) {
          why = "pop_right divergence";
          return false;
        }
        break;
      default:
        if (impl.pop_left() != spec.pop_left()) {
          why = "pop_left divergence";
          return false;
        }
        break;
    }
  }
  return true;
}

class FuzzReplayTest : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzReplayTest,
                         ::testing::Values(0xa11ce, 0xb0b, 0xcafe, 0xd00d,
                                           0xe66, 0xf00d, 17, 4242));

TEST_P(FuzzReplayTest, ArrayDequePhases) {
  const std::uint64_t seed = GetParam();
  dcd::util::Xoshiro256 rng(seed);
  for (int scenario = 0; scenario < 4; ++scenario) {
    const std::size_t cap = 1 + rng.below(6);
    ArrayDeque<std::uint64_t, GlobalLockDcas> d(cap);
    SpecDeque spec(cap);
    std::string why;

    for (int phase = 0; phase < 3; ++phase) {
      // Sequential prefix: exact spec agreement.
      ASSERT_TRUE(sequential_phase(d, spec, rng, 200, why))
          << why << " (seed " << seed << ", scenario " << scenario << ")";
      ASSERT_TRUE(d.check_rep_inv_unsynchronized()) << "seed " << seed;

      // Drain to empty (still in lock-step with the spec) — the recorded
      // window below is checked against an initially-empty SpecDeque.
      while (auto v = d.pop_left()) {
        ASSERT_EQ(v, spec.pop_left()) << "seed " << seed;
      }
      ASSERT_TRUE(spec.empty()) << "seed " << seed;

      // Concurrent burst: recorded + checked.
      WorkloadConfig cfg;
      cfg.threads = 3;
      cfg.ops_per_thread = 8;
      cfg.seed = rng.next();
      const History h = run_recorded(d, cfg);
      const CheckResult res = check_linearizable(h, cap);
      ASSERT_EQ(res.verdict, Verdict::kLinearizable)
          << "seed " << seed << ": " << res.message;
      ASSERT_TRUE(d.check_rep_inv_unsynchronized()) << "seed " << seed;

      // Resync for the next phase: drain the burst's residue (validated by
      // the checker already) so the spec restart matches.
      std::size_t drained = 0;
      while (d.pop_left()) ++drained;
      ASSERT_LE(drained, cap) << "seed " << seed;
      spec = SpecDeque(cap);
    }
  }
}

TEST_P(FuzzReplayTest, ListDequePhases) {
  const std::uint64_t seed = GetParam() ^ 0x5eed;
  dcd::util::Xoshiro256 rng(seed);
  for (int scenario = 0; scenario < 3; ++scenario) {
    ListDeque<std::uint64_t, GlobalLockDcas> d(1 << 12);
    SpecDeque spec(SpecDeque::kUnbounded);
    std::string why;

    for (int phase = 0; phase < 3; ++phase) {
      ASSERT_TRUE(sequential_phase(d, spec, rng, 200, why))
          << why << " (seed " << seed << ")";
      ASSERT_TRUE(d.check_rep_inv_unsynchronized()) << "seed " << seed;
      while (auto v = d.pop_left()) {
        ASSERT_EQ(v, spec.pop_left()) << "seed " << seed;
      }
      ASSERT_TRUE(spec.empty()) << "seed " << seed;

      WorkloadConfig cfg;
      cfg.threads = 3;
      cfg.ops_per_thread = 8;
      cfg.seed = rng.next();
      cfg.pop_right = 2;
      cfg.pop_left = 2;
      const History h = run_recorded(d, cfg);
      const CheckResult res = check_linearizable(h, SpecDeque::kUnbounded);
      ASSERT_EQ(res.verdict, Verdict::kLinearizable)
          << "seed " << seed << ": " << res.message;
      ASSERT_TRUE(d.check_rep_inv_unsynchronized()) << "seed " << seed;

      while (d.pop_left()) {
      }
      spec = SpecDeque(SpecDeque::kUnbounded);
    }
  }
}

TEST_P(FuzzReplayTest, McasArrayShortPhases) {
  const std::uint64_t seed = GetParam() ^ 0x3ca5;
  dcd::util::Xoshiro256 rng(seed);
  ArrayDeque<std::uint64_t, McasDcas> d(3);
  SpecDeque spec(3);
  std::string why;
  for (int phase = 0; phase < 3; ++phase) {
    ASSERT_TRUE(sequential_phase(d, spec, rng, 120, why))
        << why << " (seed " << seed << ")";
    while (auto v = d.pop_left()) {
      ASSERT_EQ(v, spec.pop_left()) << "seed " << seed;
    }
    ASSERT_TRUE(spec.empty()) << "seed " << seed;
    WorkloadConfig cfg;
    cfg.threads = 2;
    cfg.ops_per_thread = 10;
    cfg.seed = rng.next();
    const History h = run_recorded(d, cfg);
    const CheckResult res = check_linearizable(h, 3);
    ASSERT_EQ(res.verdict, Verdict::kLinearizable)
        << "seed " << seed << ": " << res.message;
    while (d.pop_left()) {
    }
    spec = SpecDeque(3);
  }
}

// --- known-nasty schedule corpus (tests/replays/*.repro) --------------------
//
// Curated replay files for the schedules the §5 proofs reason about — the
// suspended popper, the Figure 16 double splice, the array L/R boundary
// race — plus the explorer's mutation counterexamples. Each file carries
// its own expectations (`expect:`, `expect-shape:`, ...); this suite runs
// every file through both executors, so the corpus can't rot silently.

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(DCD_REPLAY_CORPUS_DIR)) {
    if (entry.path().extension() == ".repro") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ReplayCorpus, HasTheKnownNastySchedules) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_GE(files.size(), 7u) << "corpus went missing";
  const auto has = [&](const char* stem) {
    for (const std::string& f : files) {
      if (f.find(stem) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("suspended-popper"));
  EXPECT_TRUE(has("fig16-double-splice"));
  EXPECT_TRUE(has("array-boundary-race"));
  EXPECT_TRUE(has("mutation-drop-deleted-bit"));
  EXPECT_TRUE(has("mutation-pop-keeps-value"));
  EXPECT_TRUE(has("mutation-push-skips-deleted-check"));
  EXPECT_TRUE(has("exec-stale-two-null"));
}

TEST(ReplayCorpus, EveryFileParsesAndRoundTrips) {
  for (const std::string& path : corpus_files()) {
    dcd::mc::ReplayFile file;
    std::string error;
    ASSERT_TRUE(dcd::mc::load_replay_file(path, file, error))
        << path << ": " << error;
    dcd::mc::ReplayFile again;
    ASSERT_TRUE(
        dcd::mc::parse_replay(dcd::mc::serialize_replay(file), again, error))
        << path << ": " << error;
    EXPECT_EQ(again.schedule, file.schedule) << path;
    EXPECT_EQ(again.scenario.threads.size(), file.scenario.threads.size())
        << path;
  }
}

TEST(ReplayCorpus, ScheduledReplayMeetsExpectations) {
  for (const std::string& path : corpus_files()) {
    dcd::mc::ReplayFile file;
    std::string error;
    ASSERT_TRUE(dcd::mc::load_replay_file(path, file, error)) << error;
    const dcd::mc::ReplayOutcome out = dcd::mc::run_replay(file);
    EXPECT_TRUE(out.ok) << path << ": " << out.message;
  }
}

TEST(ReplayCorpus, ChaosReplayMeetsExpectations) {
  for (const std::string& path : corpus_files()) {
    dcd::mc::ReplayFile file;
    std::string error;
    ASSERT_TRUE(dcd::mc::load_replay_file(path, file, error)) << error;
    const dcd::mc::ReplayOutcome out = dcd::mc::run_replay_chaos(file);
    EXPECT_TRUE(out.ok) << path << ": " << out.message;
  }
}

}  // namespace
