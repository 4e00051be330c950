// Bounded exponential backoff for retry loops.
//
// On a machine with fewer hardware threads than software threads (notably
// the single-core CI host this repo is developed on), pure spinning starves
// the thread that would make progress, so the backoff escalates from PAUSE
// to sched_yield once the spin budget is exhausted. All retry loops in the
// deque implementations take an optional Backoff so tests can run reliably
// regardless of core count.
#pragma once

#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dcd::util {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  // Fallback: a compiler barrier so the loop is not optimised into a
  // re-read-free spin.
  asm volatile("" ::: "memory");
#endif
}

class Backoff {
 public:
  // `spin_limit` bounds the number of PAUSE iterations in the final
  // doubling step before the backoff starts yielding the CPU.
  explicit Backoff(std::uint32_t spin_limit = 1024) noexcept
      : spin_limit_(spin_limit) {}

  // Call once per failed attempt.
  void pause() noexcept {
    ++pauses_;
    if (current_ <= spin_limit_) {
      for (std::uint32_t i = 0; i < current_; ++i) {
        cpu_relax();
      }
      current_ = next_budget(current_);
    } else {
      ++yields_;
      std::this_thread::yield();
    }
  }

  void reset() noexcept {
    current_ = 1;
    pauses_ = 0;
    yields_ = 0;
  }

  // Exact number of pause() calls since construction/reset — spin and
  // yield regime alike; used by benches to report retry pressure. (An
  // earlier version derived this as log2 of the spin budget, which froze
  // once escalation to yield() stopped the budget from doubling.)
  std::uint64_t pauses() const noexcept { return pauses_; }

  // Exact number of pause() calls that escalated to sched_yield. The spin
  // budget itself is useless as an escalation metric: it stops doubling at
  // the spin limit, so "how hard did we back off" derived from it silently
  // caps the moment the interesting regime begins. Benches report this
  // count directly (yields/op) instead.
  std::uint64_t yields() const noexcept { return yields_; }

  // Next spin budget: doubles, saturating instead of wrapping. Without the
  // saturation a spin_limit >= 2^31 let `current_ * 2` wrap a uint32_t to
  // 0, degenerating every later pause() into a zero-spin busy loop. Pure
  // so the overflow boundary is unit-testable without spinning 2^31 times.
  static constexpr std::uint32_t next_budget(std::uint32_t current) noexcept {
    constexpr std::uint32_t kMax = ~std::uint32_t{0};
    return current > kMax / 2 ? kMax : current * 2;
  }

  // Current spin budget (diagnostics/tests).
  std::uint32_t spin_budget() const noexcept { return current_; }

 private:
  std::uint32_t spin_limit_;
  std::uint32_t current_ = 1;
  std::uint64_t pauses_ = 0;
  std::uint64_t yields_ = 0;
};

// Persistent per-thread adaptive backoff.
//
// A fresh `Backoff` local restarts its spin budget at 1 on every operation,
// so under sustained contention every call re-learns the contention level
// from scratch — and the early short spins are exactly the retries that
// fail and steal the cache line from the thread about to succeed. This
// variant keeps the budget in a thread_local: each failed attempt spins the
// current budget and doubles it (saturating at the spin limit, where it
// escalates to yield like Backoff), and each *completed* operation halves
// it, so the budget tracks the recent failure/success ratio across
// operations instead of being thrown away.
class AdaptiveBackoff {
 public:
  static constexpr std::uint32_t kDefaultSpinLimit = 1024;

  // The calling thread's persistent state.
  static AdaptiveBackoff& tl() noexcept {
    thread_local AdaptiveBackoff state;
    return state;
  }

  // Call once per failed attempt: spins the current budget, then grows it.
  void on_failure() noexcept {
    ++pauses_;
    if (current_ <= spin_limit_) {
      for (std::uint32_t i = 0; i < current_; ++i) {
        cpu_relax();
      }
      current_ = Backoff::next_budget(current_);
    } else {
      ++yields_;
      std::this_thread::yield();
    }
  }

  // Call once per completed operation: decays the budget toward 1 so a
  // burst of contention does not tax the quiet period after it.
  void on_success() noexcept {
    if (current_ > spin_limit_) current_ = spin_limit_;
    current_ = current_ > 1 ? current_ / 2 : 1;
  }

  std::uint32_t spin_budget() const noexcept { return current_; }
  // True once the spin budget is spent: the next on_failure() yields.
  bool yielding() const noexcept { return current_ > spin_limit_; }
  std::uint64_t pauses() const noexcept { return pauses_; }
  // Exact count of failures that escalated to sched_yield (see
  // Backoff::yields() for why the spin budget cannot stand in for this).
  std::uint64_t yields() const noexcept { return yields_; }
  void reset() noexcept {
    current_ = 1;
    pauses_ = 0;
    yields_ = 0;
  }

  // Drop-in replacement for a `util::Backoff backoff;` local in a retry
  // loop: pause() feeds failures into the thread's persistent state, and
  // leaving the operation (the destructor) records the success decay.
  class Session {
   public:
    Session() noexcept : state_(tl()) {}
    ~Session() { state_.on_success(); }

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    void pause() noexcept { state_.on_failure(); }

   private:
    AdaptiveBackoff& state_;
  };

 private:
  std::uint32_t spin_limit_ = kDefaultSpinLimit;
  std::uint32_t current_ = 1;
  std::uint64_t pauses_ = 0;
  std::uint64_t yields_ = 0;
};

}  // namespace dcd::util
