#include "dcd/reclaim/ebr.hpp"

#include "dcd/util/assert.hpp"

namespace dcd::reclaim {

EbrDomain::EbrDomain() { global_epoch_->store(1, std::memory_order_relaxed); }

EbrDomain::~EbrDomain() {
  // Precondition: no thread is pinned. Everything in limbo is then safe to
  // free immediately.
  for (auto& slot : slots_) {
    drain(*slot, /*force=*/true);
  }
}

std::size_t EbrDomain::enter() {
  const std::size_t s = util::ThreadRegistry::self();
  SlotState& slot = *slots_[s];
  if (slot.nesting++ == 0) {
    // DCD_HB(ebr.epoch.grace, role=acquire)
    const std::uint64_t e = global_epoch_->load(std::memory_order_acquire);
    slot.pinned.store(e, std::memory_order_relaxed);
    // Order the pin before any subsequent shared-memory load and make it
    // visible to the advance scan.
    // DCD_HB(ebr.pin.scan, role=fence-release)
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
  return s;
}

void EbrDomain::exit(std::size_t s) {
  SlotState& slot = *slots_[s];
  DCD_ASSERT(slot.nesting > 0);
  if (--slot.nesting == 0) {
    slot.pinned.store(0, std::memory_order_release);
  }
}

void EbrDomain::retire(void* p, Deleter deleter, void* ctx) {
  const std::size_t s = util::ThreadRegistry::self();
  SlotState& slot = *slots_[s];
  slot.limbo.push_back(
      Retired{p, deleter, ctx, global_epoch_->load(std::memory_order_relaxed)});
  slot.retired.store(slot.retired.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  if (++slot.since_drain >= kDrainThreshold) {
    slot.since_drain = 0;
    try_advance();
    drain(slot, /*force=*/false);
  }
}

bool EbrDomain::collect() {
  const std::size_t s = util::ThreadRegistry::self();
  SlotState& slot = *slots_[s];
  const bool blocked = !try_advance();
  drain(slot, /*force=*/false);
  if (blocked || slot.limbo_head != slot.limbo.size()) return true;
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == s || !util::ThreadRegistry::slot_live(i)) continue;
    // freed first, as in pending_count(), so the difference cannot wrap.
    // DCD_HB_EXEMPT(limbo hint; the acquire only keeps the difference from wrapping; no data is published)
    const std::uint64_t f = slots_[i]->freed.load(std::memory_order_acquire);
    if (slots_[i]->retired.load(std::memory_order_relaxed) != f) {
      return true;
    }
  }
  return false;
}

bool EbrDomain::try_advance() {
  const std::uint64_t g = global_epoch_->load(std::memory_order_seq_cst);
  const std::size_t n = util::ThreadRegistry::high_watermark();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pinned =
        // DCD_HB(ebr.pin.scan, role=acquire)
        slots_[i]->pinned.load(std::memory_order_seq_cst);
    if (pinned != 0 && pinned != g) {
      return false;  // A straggler pins an older epoch.
    }
  }
  std::uint64_t expected = g;
  // DCD_SYNC(allocator-internal)
  // DCD_HB(ebr.epoch.grace, role=release)
  global_epoch_->compare_exchange_strong(expected, g + 1,
                                         std::memory_order_acq_rel);
  return true;
}

void EbrDomain::drain(SlotState& slot, bool force) {
  std::vector<Retired>& limbo = slot.limbo;
  std::size_t i = slot.limbo_head;
  if (i == limbo.size()) return;
  const std::uint64_t g = global_epoch_->load(std::memory_order_acquire);
  // Grace: two epoch advances since retirement (see header for why this
  // is sufficient even with stale pins). Epochs never decrease along the
  // limbo, so the first entry still in its grace period ends the drain.
  for (; i < limbo.size() && (force || limbo[i].epoch + 2 <= g); ++i) {
    limbo[i].deleter(limbo[i].p, limbo[i].ctx);
  }
  const std::uint64_t freed = i - slot.limbo_head;
  if (i == limbo.size()) {
    limbo.clear();
    i = 0;
  } else if (2 * i >= limbo.size()) {
    // Drop the freed prefix once it is half the vector, so the vector
    // stays within twice the pending entries at amortised O(1) a retire.
    limbo.erase(limbo.begin(),
                limbo.begin() + static_cast<std::ptrdiff_t>(i));
    i = 0;
  }
  slot.limbo_head = i;
  slot.freed.store(slot.freed.load(std::memory_order_relaxed) + freed,
                   std::memory_order_release);
}

std::uint64_t EbrDomain::retired_count() const {
  const std::size_t n = util::ThreadRegistry::high_watermark();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += slots_[i]->retired.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t EbrDomain::freed_count() const {
  const std::size_t n = util::ThreadRegistry::high_watermark();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // DCD_HB_EXEMPT(diagnostic count; the acquire only keeps a live pending count from wrapping; no data is published)
    total += slots_[i]->freed.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace dcd::reclaim
