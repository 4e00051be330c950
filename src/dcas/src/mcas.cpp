#include "dcd/dcas/mcas.hpp"

#include <algorithm>
#include <utility>

#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::dcas {

namespace {

// A marked word holds a descriptor reference, never an address (DESIGN.md
// §13.4):
//
//   bits 9..63  seq   the descriptor's sequence number at publication
//   bits 2..8   slot  the owner's ThreadRegistry slot
//   bits 0..1   mark  kRdcssMark or kMcasMark (bit 0 is the descriptor bit)
//
// Every slot owns one immortal descriptor of each kind and reuses it for
// every operation under a new sequence number, so a reference names one
// operation, and occurs in a word at most once in the process's life.
constexpr std::uint64_t kRdcssMark = 0b01;
constexpr std::uint64_t kMcasMark = 0b11;
constexpr std::uint64_t kMarkBits = 0b11;
constexpr unsigned kSlotShift = 2;
constexpr unsigned kSeqShift = 9;
constexpr std::uint64_t kSlotMask = (1ull << (kSeqShift - kSlotShift)) - 1;
// Sequence numbers are even once published and wrap at 2^55.
constexpr std::uint64_t kSeqMask = ~0ull >> kSeqShift;
static_assert(util::ThreadRegistry::kMaxThreads <= kSlotMask + 1,
              "a descriptor reference has 7 bits of registry slot");

// Status word of an MCAS descriptor: (seq << 2) | status.
constexpr unsigned kStatusBits = 2;
constexpr std::uint64_t kUndecided = 0;
constexpr std::uint64_t kSucceeded = 1;
constexpr std::uint64_t kFailed = 2;

constexpr bool is_marked(std::uint64_t v) { return is_descriptor(v); }
constexpr bool is_rdcss(std::uint64_t v) { return (v & kMarkBits) == kRdcssMark; }
constexpr bool is_mcas(std::uint64_t v) { return (v & kMarkBits) == kMcasMark; }
constexpr std::uint64_t make_ref(std::uint64_t seq, std::size_t slot,
                                 std::uint64_t mark) {
  return (seq << kSeqShift) | (std::uint64_t{slot} << kSlotShift) | mark;
}
constexpr std::uint64_t seq_of(std::uint64_t ref) { return ref >> kSeqShift; }
constexpr std::size_t slot_of(std::uint64_t ref) {
  return (ref >> kSlotShift) & kSlotMask;
}
constexpr std::uint64_t next_seq(std::uint64_t seq) {
  return (seq + 2) & kSeqMask;
}
constexpr std::uint64_t make_state(std::uint64_t seq, std::uint64_t status) {
  return (seq << kStatusBits) | status;
}
constexpr std::uint64_t state_seq(std::uint64_t state) {
  return state >> kStatusBits;
}

// Descriptor fields are relaxed atomics written under a seqlock on `seq`
// (odd while the owner rewrites them). A helper holding a reference copies
// the fields, then re-checks `seq` against the reference; a mismatch means
// the operation finished and its reference is in no word any more.
struct alignas(util::kCacheLineSize) McasDesc {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> state{0};  // make_state(seq, status)
  std::atomic<std::size_t> width{0};
  std::atomic<Word*> addr[McasDcas::kMaxCasnWidth];
  std::atomic<std::uint64_t> oldv[McasDcas::kMaxCasnWidth];
  std::atomic<std::uint64_t> newv[McasDcas::kMaxCasnWidth];
};

// RDCSS sub-descriptor: "replace oldv with mref in the word that holds this
// reference if mref's operation is still UNDECIDED". mref names both the
// value to install and the status word it is conditional on.
struct alignas(util::kCacheLineSize) RdcssDesc {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> oldv{0};
  std::atomic<std::uint64_t> mref{0};
};

// Zero-initialised static storage with trivial destructors: descriptor
// memory is two descriptors per registry slot, whatever the stalls, and
// stays valid for stale helpers at any time. A recycled slot hands its
// descriptors, sequence numbers included, to the next owner through
// ThreadRegistry's release/acquire on the slot flag.
McasDesc g_mcas[util::ThreadRegistry::kMaxThreads];
RdcssDesc g_rdcss[util::ThreadRegistry::kMaxThreads];

// One MCAS as its owner wrote it, or as a helper copied and validated it.
struct Op {
  std::uint64_t ref;
  std::size_t width;
  Word* addr[McasDcas::kMaxCasnWidth];
  std::uint64_t oldv[McasDcas::kMaxCasnWidth];
  std::uint64_t newv[McasDcas::kMaxCasnWidth];
};

// The calling thread's slot and counters, looked up once per operation.
struct Self {
  std::size_t slot;
  Counters& c;
};

Self self() {
  // A thread's registry slot is stable for its lifetime.
  thread_local std::size_t slot = util::ThreadRegistry::kMaxThreads;
  if (slot == util::ThreadRegistry::kMaxThreads) {
    slot = util::ThreadRegistry::self();
  }
  return {slot, Telemetry::tl()};
}

// Seqlock write side, owner only: marks the descriptor as being rewritten
// and returns the sequence number its next publication carries.
std::uint64_t begin_write(std::atomic<std::uint64_t>& seq) {
  const std::uint64_t s = seq.load(std::memory_order_relaxed);
  seq.store(s + 1, std::memory_order_relaxed);
  // DCD_HB(mcas.desc.publish, role=fence-release)
  std::atomic_thread_fence(std::memory_order_release);
  return next_seq(s);
}

// Reads an RDCSS descriptor's fields for a reference loaded (acquire) from
// a word. False when the reference is stale: its owner has finished that
// RDCSS, so the reference has left the word for good.
bool read_rdcss(std::uint64_t ref, std::uint64_t& oldv, std::uint64_t& mref) {
  const RdcssDesc& d = g_rdcss[slot_of(ref)];
  oldv = d.oldv.load(std::memory_order_relaxed);
  mref = d.mref.load(std::memory_order_relaxed);
  // DCD_HB(mcas.desc.publish, role=fence-acquire)
  std::atomic_thread_fence(std::memory_order_acquire);
  return d.seq.load(std::memory_order_relaxed) == seq_of(ref);
}

// Finishes an RDCSS installed in w: the MCAS reference goes in only if the
// whole status word still reads (seq, UNDECIDED), otherwise the old value
// goes back. A decided or reused descriptor fails that test alike.
void rdcss_complete(Word& w, std::uint64_t ref, std::uint64_t oldv,
                    std::uint64_t mref, Counters& c) {
  const McasDesc& owner = g_mcas[slot_of(mref)];
  // DCD_HB(mcas.status.decide, role=acquire)
  const std::uint64_t state = owner.state.load(std::memory_order_acquire);
  const std::uint64_t replacement =
      state == make_state(seq_of(mref), kUndecided) ? mref : oldv;
  std::uint64_t expected = ref;
  // DCD_SYNC(policy-internal)
  w.raw.compare_exchange_strong(expected, replacement,
                                std::memory_order_acq_rel,
                                std::memory_order_relaxed);
  ++c.cas_ops;
}

// Helps the RDCSS whose reference was loaded (acquire) from w. Returns the
// MCAS reference it carried, or 0 if it had already left w.
std::uint64_t help_rdcss(Word& w, std::uint64_t ref, Counters& c) {
  std::uint64_t oldv, mref;
  if (!read_rdcss(ref, oldv, mref)) return 0;
  rdcss_complete(w, ref, oldv, mref, c);
  return mref;
}

// The RDCSS operation itself, on the caller's own RDCSS descriptor.
// Returns the value logically read from w: oldv on success, otherwise the
// conflicting content (a clean value or an MCAS reference; RDCSS
// references are resolved internally).
std::uint64_t rdcss(Word& w, std::uint64_t oldv, std::uint64_t mref,
                    const Self& me) {
  RdcssDesc& d = g_rdcss[me.slot];
  ++me.c.descriptors;
  const std::uint64_t seq = begin_write(d.seq);
  d.oldv.store(oldv, std::memory_order_relaxed);
  d.mref.store(mref, std::memory_order_relaxed);
  // DCD_HB(mcas.desc.publish, role=release)
  d.seq.store(seq, std::memory_order_release);
  const std::uint64_t ref = make_ref(seq, me.slot, kRdcssMark);
  // DCD_PROGRESS(CAS failure means another thread's install or help committed; conflicting rdcss marks are resolved before retrying)
  for (;;) {
    std::uint64_t expected = oldv;
    ++me.c.cas_ops;
    // DCD_SYNC(policy-internal)
    if (w.raw.compare_exchange_strong(expected, ref,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      rdcss_complete(w, ref, oldv, mref, me.c);
      return oldv;
    }
    if (!is_rdcss(expected)) return expected;
    help_rdcss(w, expected, me.c);
  }
}

void help_mcas(std::uint64_t ref, const Self& me);

// Runs an MCAS to completion (owner and helpers execute the same code).
bool mcas_help(const Op& op, const Self& me) {
  McasDesc& d = g_mcas[slot_of(op.ref)];
  const std::uint64_t seq = seq_of(op.ref);
  // DCD_HB(mcas.status.decide, role=acquire)
  if (d.state.load(std::memory_order_acquire) ==
      make_state(seq, kUndecided)) {
    // Phase 1: install the reference in every word (ascending address
    // order, established by the owner, so concurrent MCASes cannot
    // livelock each other).
    std::uint64_t desired = kSucceeded;
    for (std::size_t i = 0; i < op.width && desired == kSucceeded; ++i) {
      // DCD_PROGRESS(each retry first helps the conflicting MCAS to completion, or finds it already finished)
      for (;;) {
        const std::uint64_t r = rdcss(*op.addr[i], op.oldv[i], op.ref, me);
        if (is_mcas(r)) {
          if (r == op.ref) break;  // a helper already installed for us
          ++me.c.helps;
          help_mcas(r, me);  // clear the conflicting operation first
          continue;
        }
        if (r == op.oldv[i]) break;  // installed by the rdcss above
        desired = kFailed;           // genuine value mismatch
        break;
      }
    }
    std::uint64_t expected = make_state(seq, kUndecided);
    // DCD_SYNC(policy-internal)
    // DCD_HB(mcas.status.decide, role=release)
    d.state.compare_exchange_strong(expected, make_state(seq, desired),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire);
    ++me.c.cas_ops;
  }

  // Phase 2: swap the reference for the outcome's values. Idempotent; any
  // subset of owner/helpers may execute it. A helper that finds the
  // descriptor reused stops: the owner has already cleaned every word.
  // DCD_HB(mcas.status.decide, role=acquire)
  const std::uint64_t state = d.state.load(std::memory_order_acquire);
  if (state_seq(state) != seq) return false;
  const bool ok = state == make_state(seq, kSucceeded);
  for (std::size_t i = 0; i < op.width; ++i) {
    Word& w = *op.addr[i];
    // An RDCSS that read UNDECIDED before the decision may still be about
    // to install the reference here (after a FAILED outcome this word may
    // hold oldv again). Backing it out now, while the status is decided,
    // keeps the reference out of every word once the owner returns.
    // DCD_PROGRESS(a retry follows an RDCSS of this operation leaving the word; each is removed at most once and none can start after the decision)
    for (;;) {
      std::uint64_t expected = op.ref;
      ++me.c.cas_ops;
      // DCD_SYNC(policy-internal)
      if (w.raw.compare_exchange_strong(expected,
                                        ok ? op.newv[i] : op.oldv[i],
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        break;
      }
      if (!is_rdcss(expected)) break;
      const std::uint64_t m = help_rdcss(w, expected, me.c);
      if (m != 0 && m != op.ref) break;
    }
  }
  return ok;
}

// Helps the MCAS whose reference was loaded (acquire) from a word. A stale
// reference means the operation finished: the caller re-reads the word.
void help_mcas(std::uint64_t ref, const Self& me) {
  const McasDesc& d = g_mcas[slot_of(ref)];
  Op op;
  op.ref = ref;
  op.width = std::min(d.width.load(std::memory_order_relaxed),
                      McasDcas::kMaxCasnWidth);
  for (std::size_t i = 0; i < op.width; ++i) {
    op.addr[i] = d.addr[i].load(std::memory_order_relaxed);
    op.oldv[i] = d.oldv[i].load(std::memory_order_relaxed);
    op.newv[i] = d.newv[i].load(std::memory_order_relaxed);
  }
  // DCD_HB(mcas.desc.publish, role=fence-acquire)
  std::atomic_thread_fence(std::memory_order_acquire);
  if (d.seq.load(std::memory_order_relaxed) != seq_of(ref)) return;
  mcas_help(op, me);
}

// Publishes op (addresses already in ascending order) in the caller's MCAS
// descriptor and runs it.
bool run_owned(Op& op, const Self& me) {
  McasDesc& d = g_mcas[me.slot];
  ++me.c.descriptors;
  const std::uint64_t seq = begin_write(d.seq);
  d.width.store(op.width, std::memory_order_relaxed);
  for (std::size_t i = 0; i < op.width; ++i) {
    d.addr[i].store(op.addr[i], std::memory_order_relaxed);
    d.oldv[i].store(op.oldv[i], std::memory_order_relaxed);
    d.newv[i].store(op.newv[i], std::memory_order_relaxed);
  }
  d.state.store(make_state(seq, kUndecided), std::memory_order_relaxed);
  // DCD_HB(mcas.desc.publish, role=release)
  d.seq.store(seq, std::memory_order_release);
  op.ref = make_ref(seq, me.slot, kMcasMark);
  const bool ok = mcas_help(op, me);
  if (!ok) ++me.c.dcas_failures;
  return ok;
}

}  // namespace

std::uint64_t McasDcas::load(const Word& w) noexcept {
  Counters& c = Telemetry::tl();
  ++c.loads;
  auto& word = const_cast<Word&>(w);
  // DCD_PROGRESS(every marked read helps that descriptor to completion, or finds it finished and gone from the word)
  for (;;) {
    const std::uint64_t v = word.raw.load(std::memory_order_acquire);
    if (!is_marked(v)) return v;
    ++c.helps;
    if (is_rdcss(v)) {
      help_rdcss(word, v, c);
    } else {
      help_mcas(v, self());
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
  const Self me = self();
  ++me.c.dcas_calls;
  Op op;
  op.width = 2;
  // Ascending address order (see mcas_help).
  if (&a < &b) {
    op.addr[0] = &a; op.addr[1] = &b;
    op.oldv[0] = oa; op.oldv[1] = ob;
    op.newv[0] = na; op.newv[1] = nb;
  } else {
    op.addr[0] = &b; op.addr[1] = &a;
    op.oldv[0] = ob; op.oldv[1] = oa;
    op.newv[0] = nb; op.newv[1] = na;
  }
  return run_owned(op, me);
}

bool McasDcas::casn(Word* const* addrs, const std::uint64_t* olds,
                    const std::uint64_t* news, std::size_t n) noexcept {
  DCD_ASSERT(n >= 1 && n <= kMaxCasnWidth);
  const Self me = self();
  ++me.c.dcas_calls;
  Op op;
  op.width = n;
  for (std::size_t i = 0; i < n; ++i) {
    op.addr[i] = addrs[i];
    op.oldv[i] = olds[i];
    op.newv[i] = news[i];
    DCD_DEBUG_ASSERT(!is_marked(olds[i]) && !is_marked(news[i]));
  }
  // Ascending address order (livelock freedom); distinct addresses
  // required, as with dcas.
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = i; j > 0 && op.addr[j] < op.addr[j - 1]; --j) {
      std::swap(op.addr[j], op.addr[j - 1]);
      std::swap(op.oldv[j], op.oldv[j - 1]);
      std::swap(op.newv[j], op.newv[j - 1]);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    DCD_ASSERT(op.addr[i] != op.addr[i - 1]);
  }
  return run_owned(op, me);
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
