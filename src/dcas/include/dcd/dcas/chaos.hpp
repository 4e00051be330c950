// Fault-injecting DCAS wrapper ("ChaosDcas") + the sync-point registry it
// reports into.
//
// The paper's robustness claims (§5.2) are about *adversarial schedules*: a
// popper suspended between its logical and physical delete must never block
// other threads, and the Figure 16 two-null-node race must resolve with
// exactly one DCAS winner. Plain stress tests only sample schedules the OS
// happens to produce; ChaosDcas<Inner> lets a test *force* the schedules
// the proofs reason about. It satisfies DcasPolicy, delegates every
// operation to any inner policy, and injects three kinds of fault from a
// seeded, replayable schedule:
//
//   * delay windows       — randomized spin delays before loads/DCASes,
//                           widening the windows the algorithms must
//                           tolerate;
//   * forced DCAS failure — a boolean-form DCAS returns false without
//                           touching memory (a spurious retry; safe because
//                           every boolean-DCAS caller treats failure as
//                           "loop again"). Never applied to dcas_view: its
//                           failure contract hands back an *atomic view*
//                           that callers act on (the lines-17/18 paths),
//                           which a fake failure cannot produce;
//   * pause/kill at named sync points — a thread is parked (resumably) or
//                           killed (parked until teardown) when it hits a
//                           named point, e.g. right after a list pop's
//                           logical delete and before anyone's physical
//                           delete.
//
// Sync points are derived *at the policy layer* by classifying each DCAS
// call from the word encoding of its operands (word.hpp's reserved bits
// make every algorithmic DCAS shape distinguishable), so the deque sources
// stay byte-identical: the retry loops tap the registry purely through
// their existing Dcas::load/Dcas::dcas call sites.
//
//   shape                   fires                       when
//   ---------------------   -------------------------   -------------------
//   any DCAS                "dcas.any"                  before the attempt
//   identity (na==oa,nb==ob)"empty.confirm"             before the attempt
//   nb==null, na has
//     deleted bit           "pop.logical_delete"        after success
//   nb==null otherwise      "pop.commit"                after success
//   oa or ob deleted bit    "delete.splice"             before the attempt
//   oa AND ob deleted bit   "delete.two_null_splice"    before the attempt
//
// "pop.logical_delete" is the list deque's split-pop linearization point
// (§4); parking there is exactly the paper's suspended popper.
// "delete.two_null_splice" is the Figure 16 double splice; parking the
// first two threads there stages the two-winner race deterministically.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/word.hpp"

namespace dcd::dcas {

// The algorithmic shape of a DCAS call, recovered from its operands.
enum class DcasShape : std::uint8_t {
  kGeneric = 0,        // pushes, MCAS internals, anything unclassified
  kEmptyConfirm,       // identity DCAS confirming an empty/full snapshot
  kPopCommit,          // array-style pop: cell nulled, index moved
  kLogicalDelete,      // list pop: deleted bit set + value nulled
  kSplice,             // physical delete, single-node splice
  kTwoNullSplice,      // physical delete, Figure 16 double splice
  kCount_,
};

constexpr std::size_t kDcasShapeCount =
    static_cast<std::size_t>(DcasShape::kCount_);

const char* shape_name(DcasShape s) noexcept;

constexpr DcasShape classify_dcas(std::uint64_t oa, std::uint64_t ob,
                                  std::uint64_t na,
                                  std::uint64_t nb) noexcept {
  if (na == oa && nb == ob) return DcasShape::kEmptyConfirm;
  if (deleted_of(oa) && deleted_of(ob)) return DcasShape::kTwoNullSplice;
  if (deleted_of(oa) || deleted_of(ob)) return DcasShape::kSplice;
  if (nb == kNull) {
    return deleted_of(na) ? DcasShape::kLogicalDelete : DcasShape::kPopCommit;
  }
  return DcasShape::kGeneric;
}

// Everything randomized in a chaos run derives deterministically from one
// seed, so a failing run replays from the seed alone (the repo-wide
// reproducibility rule; see docs/FAULT_INJECTION.md for the workflow).
struct ChaosSchedule {
  std::uint64_t seed = 0;
  // Probability (per mille) that a load / DCAS call site delays, and the
  // delay window in cpu_relax() iterations drawn uniformly from
  // [0, max_delay_spins).
  std::uint32_t delay_per_mille = 0;
  std::uint32_t max_delay_spins = 0;
  // Probability (per mille) that a boolean-form DCAS spuriously fails.
  std::uint32_t dcas_fail_per_mille = 0;

  // Canonical seed → parameters mapping (pure function of `seed`).
  static ChaosSchedule from_seed(std::uint64_t seed) noexcept;

  // One-line description for CI logs: re-running with the same seed must
  // print the identical line.
  std::string describe() const;
};

// Installable fault controller. At most one is active process-wide;
// construction installs, destruction releases every parked thread and
// uninstalls. Arm all park rules before concurrent traffic starts.
//
// Thread-safety: hit counters and stats are atomics; parking uses a
// mutex/condvar (TSan-clean); per-thread RNG/fingerprint state is indexed
// by ThreadRegistry slot and touched only by its owner.
class ChaosController {
 public:
  static constexpr std::size_t kMaxRules = 16;
  static constexpr std::uint64_t kNoRule = ~std::uint64_t{0};

  explicit ChaosController(const ChaosSchedule& schedule);
  ~ChaosController();

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  // The installed controller, or nullptr (the fast path every ChaosDcas
  // call checks first).
  static ChaosController* active() noexcept {
    // DCD_HB(chaos.controller.install, role=acquire)
    return active_.load(std::memory_order_acquire);
  }

  // Pin the controller for the duration of one wrapped call (nullptr if
  // none installed). The destructor wakes every parked thread and then
  // waits for the pin count to drain before freeing its state, so a thread
  // it resumes can finish the call it was parked inside. Pin-then-check
  // ordering guarantees any thread that obtained a non-null controller is
  // counted before the destructor's drain.
  static ChaosController* acquire() noexcept {
    pins_.fetch_add(1, std::memory_order_seq_cst);
    ChaosController* c = active_.load(std::memory_order_seq_cst);
    if (c == nullptr) pins_.fetch_sub(1, std::memory_order_release);
    return c;
  }
  static void unpin() noexcept {
    // DCD_HB(chaos.pin.teardown, role=release)
    pins_.fetch_sub(1, std::memory_order_release);
  }

  const ChaosSchedule& schedule() const noexcept { return schedule_; }

  // --- test-facing rule API ----------------------------------------------

  // Park the thread that produces the nth (1-based) hit of `point` until
  // release(). "Kill" is a park the test never releases: the victim stays
  // parked until controller teardown, modelling a thread that dies at the
  // sync point. `point` must satisfy is_sync_point. Returns a rule handle.
  std::size_t arm_park(const char* point, std::uint64_t nth);

  // True while a thread is blocked inside rule `r`'s park.
  bool parked(std::size_t r) const;

  // Blocks until a thread parks at rule `r`; false on timeout.
  bool wait_parked(std::size_t r, std::uint64_t timeout_ms) const;

  void release(std::size_t r);
  void release_all();

  // --- stats --------------------------------------------------------------

  std::uint64_t attempts(DcasShape s) const noexcept;
  std::uint64_t successes(DcasShape s) const noexcept;
  std::uint64_t forced_failures() const noexcept;
  std::uint64_t delays_injected() const noexcept;

  // XOR over per-thread FNV-1a digests of every injected decision
  // (shape, delay?, spins, forced-fail?). For a fixed single-threaded call
  // sequence this is a pure function of the schedule seed — the replay
  // determinism tests key on it.
  std::uint64_t fingerprint() const noexcept;

  // --- ChaosDcas-facing hooks (hot path) ----------------------------------

  void on_load() noexcept;
  void before_dcas(DcasShape s) noexcept;
  // Only boolean-form DCAS calls consult this (see header comment).
  bool maybe_force_fail(DcasShape s) noexcept;
  void after_dcas(DcasShape s, bool ok) noexcept;

  // Fires `point` rules outside any DCAS/CAS context — the magazine
  // allocator reports its refill/flush windows through this via the
  // reclaim::magazine_hook() trampoline chaos.cpp installs. Deliberately
  // does not consume schedule RNG, so magazine traffic cannot shift the
  // injected-fault fingerprint of the DCAS stream.
  void notify(const char* point) noexcept;

 private:
  struct Impl;
  Impl* impl_;
  ChaosSchedule schedule_;

  static std::atomic<ChaosController*> active_;
  // Threads currently inside a wrapped call (process-wide: at most one
  // controller is ever active, and the count must survive its teardown).
  static std::atomic<std::size_t> pins_;
};

// Reads DCD_CHAOS_SEED from the environment, falling back to `fallback`.
// CI pins this variable so schedule-dependent failures replay from the log
// (mirroring fuzz_replay_test's printed-seed workflow).
std::uint64_t chaos_seed_from_env(std::uint64_t fallback) noexcept;

// The wrapper policy. Satisfies DcasPolicy whenever Inner does (the
// constraint rejects non-policies at the instantiation site); with no
// controller installed every call is a single relaxed load away from the
// inner policy.
template <DcasPolicy Inner>
class ChaosDcas {
 public:
  static constexpr const char* kName = "chaos";
  // Progress caveat: parking a thread models that thread dying, so the
  // wrapper preserves Inner's progress property for the *other* threads —
  // which is precisely the claim the chaos suites exercise.
  static constexpr bool kLockFree = Inner::kLockFree;

  using InnerPolicy = Inner;

  static std::uint64_t load(const Word& w) noexcept {
    if (ChaosController* c = ChaosController::acquire()) {
      c->on_load();
      ChaosController::unpin();
    }
    return Inner::load(w);
  }

  static void store_init(Word& w, std::uint64_t v) noexcept {
    Inner::store_init(w, v);
  }

  // Single-word CAS (LFRC's counts and slots) passes straight through:
  // no deque algorithm issues one, so it has no sync point.
  static bool cas(Word& w, std::uint64_t oldv, std::uint64_t newv) noexcept {
    return Inner::cas(w, oldv, newv);  // DCD_SYNC(policy-internal)
  }

  static bool dcas(Word& a, Word& b, std::uint64_t oa, std::uint64_t ob,
                   std::uint64_t na, std::uint64_t nb) noexcept {
    ChaosController* c = ChaosController::acquire();
    if (c == nullptr) return Inner::dcas(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    const DcasShape s = classify_dcas(oa, ob, na, nb);
    c->before_dcas(s);
    if (c->maybe_force_fail(s)) {
      ChaosController::unpin();
      return false;
    }
    const bool ok = Inner::dcas(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    c->after_dcas(s, ok);
    ChaosController::unpin();
    return ok;
  }

  static bool dcas_view(Word& a, Word& b, std::uint64_t& oa,
                        std::uint64_t& ob, std::uint64_t na,
                        std::uint64_t nb) noexcept {
    ChaosController* c = ChaosController::acquire();
    if (c == nullptr) return Inner::dcas_view(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    const DcasShape s = classify_dcas(oa, ob, na, nb);
    c->before_dcas(s);
    const bool ok = Inner::dcas_view(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    c->after_dcas(s, ok);
    ChaosController::unpin();
    return ok;
  }
};

// Named sync points (the strings fire() compares against; see the table in
// the header comment for timing).
namespace sync_point {
inline constexpr const char* kDcasAny = "dcas.any";
inline constexpr const char* kEmptyConfirm = "empty.confirm";
inline constexpr const char* kPopCommit = "pop.commit";
inline constexpr const char* kLogicalDelete = "pop.logical_delete";
inline constexpr const char* kSplice = "delete.splice";
inline constexpr const char* kTwoNullSplice = "delete.two_null_splice";
// Magazine allocator windows (reclaim/magazine_pool.hpp), fired through
// ChaosController::notify while the calling thread holds its magazine
// try-lock — parking here proves other threads keep allocating.
inline constexpr const char* kMagazineRefill = "magazine.refill";
inline constexpr const char* kMagazineFlush = "magazine.flush";
// Executor idle-path windows (exec/executor.hpp), fired through
// ChaosController::notify directly (dcd_exec links dcd_dcas, so no hook
// indirection is needed). kExecSteal fires at the top of every victim
// sweep, kExecPark right before a worker blocks on the eventcount, and
// kExecInject on the external-submission path — parking at any of them
// must leave the remaining workers draining the task graph.
inline constexpr const char* kExecSteal = "exec.steal";
inline constexpr const char* kExecPark = "exec.park";
inline constexpr const char* kExecInject = "exec.inject";
}  // namespace sync_point

// True iff `point` names one of the sync_point constants above.
// ChaosController::arm_park asserts it: a typo'd point would compile, arm
// and simply never fire.
bool is_sync_point(const char* point) noexcept;

}  // namespace dcd::dcas
