// Deterministic-scheduling DCAS wrapper ("SchedDcas") — the policy the
// stateless model checker (dcd::mc) instruments.
//
// ChaosDcas (chaos.hpp) perturbs schedules *probabilistically*; SchedDcas
// hands schedule control to an installed SchedClient *exactly*: every
// policy-layer access (load / cas / both DCAS forms) first parks the
// calling model thread in SchedClient::before_access until the scheduler
// grants it the step, then executes the access through the inner policy and
// reports the result via after_access. Because the scheduler admits one
// model thread at a time, an execution is a deterministic function of the
// sequence of grants — which is what lets dcd::mc::Explorer enumerate
// interleavings exhaustively and replay any one of them from a schedule
// file (see docs/MODEL_CHECKING.md).
//
// The sync-point classification is shared with the chaos registry: each
// DCAS access carries the DcasShape recovered by classify_dcas(), so a
// counterexample schedule can name the same sync points
// (pop.logical_delete, delete.two_null_splice, ...) that ChaosDcas park
// rules use — the bridge that makes mc counterexamples reproducible under
// fault injection.
//
// store_init is deliberately NOT a scheduling point: its contract
// (word.hpp) restricts it to initialisation of words no other thread can
// reach yet (constructors, a push's private node before its publishing
// DCAS), so interleaving it cannot change any observable behaviour and
// would only deepen every explored trace.
#pragma once

#include <atomic>
#include <cstdint>

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/global_lock.hpp"
#include "dcd/dcas/word.hpp"

namespace dcd::dcas {

// The kind of policy-layer access about to execute.
enum class AccessKind : std::uint8_t {
  kLoad,
  kCas,
  kDcas,
  kDcasView,
};

const char* access_kind_name(AccessKind k) noexcept;

// One shared-memory step, described *before* it executes (the scheduler
// needs the footprint to decide independence; whether a CAS/DCAS will
// actually write is unknowable beforehand, so may-write is conservative).
struct SchedAccess {
  AccessKind kind = AccessKind::kLoad;
  const Word* a = nullptr;  // every access touches a
  const Word* b = nullptr;  // DCAS forms also touch b
  DcasShape shape = DcasShape::kGeneric;  // chaos-registry classification
  std::uint64_t oa = 0, ob = 0, na = 0, nb = 0;

  bool may_write() const noexcept { return kind != AccessKind::kLoad; }
};

// The scheduler a SchedDcas call yields to. before_access blocks the
// calling thread until the scheduler grants the step; after_access reports
// whether the step wrote (successful cas/dcas) — the dependency information
// DPOR race analysis runs on. Implementations must tolerate calls from
// threads they do not manage (the model-checker control thread walking a
// deque during setup) by returning immediately.
class SchedClient {
 public:
  virtual ~SchedClient() = default;
  virtual void before_access(const SchedAccess& access) = 0;
  virtual void after_access(const SchedAccess& access, bool wrote) = 0;
};

// Process-wide installed client (at most one; nullptr = every SchedDcas
// call is a plain passthrough to the inner policy).
SchedClient* sched_client() noexcept;
// Installing over an existing client (or uninstalling nothing) asserts.
void install_sched_client(SchedClient* client) noexcept;
void uninstall_sched_client(SchedClient* client) noexcept;

// The wrapper policy. Satisfies DcasPolicy whenever Inner does. With no
// client installed every call is one relaxed load away from Inner; with a
// client installed, every access is a scheduling point.
template <DcasPolicy Inner = GlobalLockDcas>
class SchedDcasT {
 public:
  static constexpr const char* kName = "sched";
  // The wrapper serialises model threads, so the composite is trivially
  // not lock-free at runtime; kLockFree advertises Inner's property because
  // the *algorithms under test* are explored unchanged.
  static constexpr bool kLockFree = Inner::kLockFree;

  using InnerPolicy = Inner;

  static std::uint64_t load(const Word& w) noexcept {
    SchedClient* c = sched_client();
    if (c == nullptr) return Inner::load(w);
    SchedAccess acc;
    acc.kind = AccessKind::kLoad;
    acc.a = &w;
    c->before_access(acc);
    const std::uint64_t v = Inner::load(w);
    c->after_access(acc, /*wrote=*/false);
    return v;
  }

  static void store_init(Word& w, std::uint64_t v) noexcept {
    Inner::store_init(w, v);  // initialisation only — never a sync point
  }

  static bool cas(Word& w, std::uint64_t oldv, std::uint64_t newv) noexcept {
    SchedClient* c = sched_client();
    if (c == nullptr) return Inner::cas(w, oldv, newv);  // DCD_SYNC(policy-internal)
    SchedAccess acc;
    acc.kind = AccessKind::kCas;
    acc.a = &w;
    acc.oa = oldv;
    acc.na = newv;
    c->before_access(acc);
    const bool ok = Inner::cas(w, oldv, newv);  // DCD_SYNC(policy-internal)
    c->after_access(acc, ok);
    return ok;
  }

  static bool dcas(Word& a, Word& b, std::uint64_t oa, std::uint64_t ob,
                   std::uint64_t na, std::uint64_t nb) noexcept {
    SchedClient* c = sched_client();
    if (c == nullptr) return Inner::dcas(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    SchedAccess acc;
    acc.kind = AccessKind::kDcas;
    acc.a = &a;
    acc.b = &b;
    acc.shape = classify_dcas(oa, ob, na, nb);
    acc.oa = oa;
    acc.ob = ob;
    acc.na = na;
    acc.nb = nb;
    c->before_access(acc);
    const bool ok = Inner::dcas(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    c->after_access(acc, ok);
    return ok;
  }

  static bool dcas_view(Word& a, Word& b, std::uint64_t& oa,
                        std::uint64_t& ob, std::uint64_t na,
                        std::uint64_t nb) noexcept {
    SchedClient* c = sched_client();
    if (c == nullptr) return Inner::dcas_view(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    SchedAccess acc;
    acc.kind = AccessKind::kDcasView;
    acc.a = &a;
    acc.b = &b;
    acc.shape = classify_dcas(oa, ob, na, nb);
    acc.oa = oa;
    acc.ob = ob;
    acc.na = na;
    acc.nb = nb;
    c->before_access(acc);
    const bool ok = Inner::dcas_view(a, b, oa, ob, na, nb);  // DCD_SYNC(policy-internal)
    c->after_access(acc, ok);
    return ok;
  }
};

using SchedDcas = SchedDcasT<GlobalLockDcas>;

}  // namespace dcd::dcas
