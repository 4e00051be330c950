// Fork/join work-stealing executor over the DCAS deques (§1's application).
//
// Topology: one deque per worker thread. The owner pushes and pops tasks
// at its own end (LIFO depth-first — the hot child stays cache-warm);
// idle workers sweep the other workers' deques in randomized order and
// steal from the opposite end (FIFO — the oldest task is the coarsest
// unit of work). DequeTraits maps those verbs onto the general DCAS
// deques (ListDeque/ArrayDeque: right = owner, left = thief) and onto the
// ABP restricted deque (bottom = owner, top = thief).
//
// External submission is where the general deques earn their keep: a
// non-worker thread injects a task *lock-free* with a left push onto a
// round-robin-chosen worker's deque. The ABP deque structurally cannot
// accept a remote push (only the owner may touch the bottom end), so for
// it — and as an overflow path for bounded general deques — submissions
// fall back to a mutex-protected inbox that idle workers drain. That
// asymmetry is the re-injection argument of DESIGN.md §14.
//
// Task handoff synchronization rides entirely on edges that already carry
// proofs in this repo:
//   * deque transfer   — the push's publishing DCAS / release store is the
//     linearization point (PROOF_MAP rows for the deques); a task's plain
//     fn/args writes precede the push and are collected by the pop. The
//     last child a task forks skips the deque: it waits in the worker's
//     owner-only `next` slot and runs on the worker that forked it, so no
//     edge is needed (a later fork displaces it onto the deque, where it
//     becomes stealable). It cannot be stolen while its parent's body
//     runs; a body that waits on its children must wait through join() or
//     wait_all(), which take the slot first (DESIGN.md §14.1).
//   * join             — Task::pending acq_rel decrements; the child that
//     hits zero acquires every sibling's effects, then runs the
//     continuation in place on its own worker (task.hpp, complete()).
//   * drain            — per-worker single-writer spawned/completed counts;
//     wait_all() reads every completed (acquire), then every spawned, and
//     equal sums mean the graph drained (in_flight()). An external waiter
//     is released by the next dry sweep through a second Dekker handshake
//     (drain_waiters_), so retiring a task writes no executor-wide line.
//   * idle parking     — a Dekker handshake: the parking worker advertises
//     itself (parked_), seq_cst-fences, then re-sweeps; the producer
//     pushes, seq_cst-fences, then checks parked_. One side must see the
//     other, so a task pushed concurrently with a park is never lost. The
//     actual blocking is a mutex/condvar eventcount (wake_epoch_).
//
// Sync points (chaos.hpp roster): "exec.steal" fires at the top of every
// victim sweep, "exec.park" immediately before the eventcount wait,
// "exec.inject" on the external-submission path. They are notify-form
// points (like magazine.refill/flush) — no DCAS shape to classify — fired
// straight into ChaosController; parking a thread at any of them must
// leave the remaining workers draining the task graph (exec chaos tests).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "dcd/dcas/chaos.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/exec/deque_traits.hpp"
#include "dcd/exec/task.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stats.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::exec {

struct ExecConfig {
  // 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  // Per-worker deque capacity (ListDeque max_nodes / ArrayDeque capacity /
  // AroraDeque capacity). On owner-push overflow the task runs inline.
  std::size_t deque_capacity = 1 << 16;
  // Idle time a worker sweeps (from its first dry sweep after a task) before
  // it parks; it parks only once its scan backoff yields (DESIGN.md §14.1).
  std::chrono::microseconds spin_before_park{1000};
  // Sample every Nth successful task acquisition into the per-worker
  // latency histogram (0 disables sampling).
  std::uint32_t latency_stride = 0;
  // Seed for the per-worker victim-order RNGs (worker id is mixed in).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  // Max recycled Task objects cached per worker.
  std::size_t freelist_cap = 256;
};

// Aggregated telemetry (per-worker single-writer relaxed counters, summed;
// exact when the executor is quiescent, like dcas::Telemetry).
struct ExecStats {
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t parks = 0;
  std::uint64_t dry_sweeps = 0;
  std::uint64_t scan_pauses = 0;  // AdaptiveBackoff pauses() mirror
  std::uint64_t scan_yields = 0;  // AdaptiveBackoff yields() mirror
  std::uint64_t injected = 0;     // external submissions
};

namespace detail {
// Which worker (and executor) the current thread is, if any. Keyed by
// raw pointers so the executor type stays a template parameter.
inline thread_local void* tl_worker = nullptr;
inline thread_local const void* tl_executor = nullptr;
}  // namespace detail

template <typename Deque>
class Executor {
 public:
  using Traits = DequeTraits<Deque>;
  static_assert(std::is_same_v<typename Deque::value_type, Task*>,
                "Executor requires a deque of Task* "
                "(deque::ValueCodec<Task*> encodes the 8-aligned pointer)");

  Executor() : Executor(ExecConfig{}) {}

  explicit Executor(const ExecConfig& cfg) : cfg_(cfg) {
    std::size_t n = cfg_.workers;
    if (n == 0) {
      n = std::thread::hardware_concurrency();
      if (n == 0) n = 2;
    }
    DCD_ASSERT(n >= 1 && n <= util::ThreadRegistry::kMaxThreads);
    workers_ = std::vector<Worker>(n);
    for (std::size_t i = 0; i < n; ++i) {
      Worker& w = workers_[i];
      w.owner = this;
      w.id = i;
      w.deque = std::make_unique<Deque>(cfg_.deque_capacity);
      w.rng = util::Xoshiro256(cfg_.seed + 0x632be59bd9b4e019ull * (i + 1));
    }
    threads_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { worker_main(workers_[i]); });
    }
  }

  ~Executor() {
    wait_all();
    {
      std::lock_guard<std::mutex> lock(mu_);
      // DCD_HB(exec.stop.latch, role=release)
      stop_.store(true, std::memory_order_release);
      wake_epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
    for (Worker& w : workers_) drain_freelist(w);
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t workers() const noexcept { return workers_.size(); }

  // Allocate a task. On a worker thread of this executor the worker's
  // freelist serves the allocation; external threads heap-allocate.
  Task* create(TaskFn fn, Task* continuation = nullptr,
               std::uint32_t pending = 0, std::uint64_t a0 = 0,
               std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
    if (Worker* w = self()) return w->create(fn, continuation, pending,
                                             a0, a1, a2);
    Task* t = new Task;
    init_task(*t, fn, continuation, pending, a0, a1, a2);
    return t;
  }

  // Make `t` runnable. Worker threads push their own deque (owner end);
  // external threads inject lock-free at a round-robin victim's thief end
  // when the deque supports it, else through the mutex inbox.
  void submit(Task* t) {
    DCD_ASSERT(t != nullptr && t->fn != nullptr);
    if (Worker* w = self()) {
      bump(w->spawned);
      push_own(*w, t);
    } else {
      inject(t);  // counted in injected_
    }
    wake_one();
  }

  // Block until `latch` reaches zero. Worker threads *help*: they keep
  // executing/stealing tasks while they wait (never parking — the latch
  // may complete on another worker with every deque empty). External
  // threads block on the completion condvar; every latch that hits zero
  // notifies it.
  void join(Latch& latch) {
    if (Worker* w = self()) {
      while (!latch.done()) {
        if (Task* t = try_acquire(*w)) {
          run(*w, t);
        } else {
          record_dry_sweep(*w);
        }
      }
      return;
    }
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return latch.done(); });
  }

  // Block until every submitted task has completed. On a worker thread
  // (inside a task body) the caller's own task is in flight, so blocking
  // until none is would wait on itself; help instead — execute and steal
  // until this task is the only one left in flight. (Cyclic waits — two
  // tasks each wait_all()ing on the other — are unresolvable misuse and
  // spin here rather than deadlock silently on the condvar.) An external
  // waiter advertises itself in drain_waiters_ and sleeps; the first dry
  // sweep after the last completion wakes it (record_dry_sweep).
  void wait_all() {
    if (Worker* w = self()) {
      while (in_flight() > 1) {
        if (Task* t = try_acquire(*w)) {
          run(*w, t);
        } else {
          record_dry_sweep(*w);
        }
      }
      return;
    }
    std::unique_lock<std::mutex> lock(done_mu_);
    drain_waiters_.fetch_add(1, std::memory_order_relaxed);
    // DCD_HB(exec.drain.dekker, role=fence-release)
    std::atomic_thread_fence(std::memory_order_seq_cst);
    done_cv_.wait(lock, [&] { return in_flight() == 0; });
    drain_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }

  ExecStats stats() const {
    ExecStats s;
    for (const Worker& w : workers_) {
      s.executed += w.executed.load(std::memory_order_relaxed);
      s.steals += w.steals.load(std::memory_order_relaxed);
      s.failed_steals += w.failed_steals.load(std::memory_order_relaxed);
      s.parks += w.parks.load(std::memory_order_relaxed);
      s.dry_sweeps += w.dry_sweeps.load(std::memory_order_relaxed);
      s.scan_pauses += w.scan_pauses.load(std::memory_order_relaxed);
      s.scan_yields += w.scan_yields.load(std::memory_order_relaxed);
    }
    s.injected = injected_.load(std::memory_order_relaxed);
    return s;
  }

  // Merged per-worker task-acquisition latency (only meaningful when
  // cfg.latency_stride > 0 and the executor is quiescent).
  util::LatencyHistogram latency() const {
    util::LatencyHistogram h;
    for (const Worker& w : workers_) h.merge(w.lat);
    return h;
  }

 private:
  // Per-worker state. Plain members are single-threaded (owner worker
  // only) or quiescent-read (stats/latency after wait_all); the
  // cross-thread surface is the deque, the atomic counters, and the
  // executor-level eventcount. Licensed in contracts.toml
  // [[shared.struct]].
  struct alignas(util::kCacheLineSize) Worker final : public TaskContext {
    Executor* owner = nullptr;
    std::size_t id = 0;
    std::unique_ptr<Deque> deque;
    util::Xoshiro256 rng{0};
    util::AdaptiveBackoff scan_backoff;
    util::LatencyHistogram lat;
    std::uint64_t lat_tick = 0;
    Task* free_head = nullptr;
    std::size_t free_count = 0;
    // The last task this worker forked, not yet run (Go's runnext, Tokio's
    // LIFO slot): owner-only, taken by run() and try_acquire().
    Task* next = nullptr;
    // First dry sweep since the worker last ran a task (epoch while busy).
    std::chrono::steady_clock::time_point idle_since{};
    // Drain counts, single-writer like the telemetry below: tasks this
    // worker made runnable (fork, on-worker submit) and in-flight units it
    // retired. A ready continuation takes over its child's unit, so it
    // moves neither (complete()).
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> completed{0};
    // Telemetry: single-writer (the owner worker, via bump()), aggregated
    // by Executor::stats(). scan_pauses/scan_yields mirror the backoff's
    // exact counts after every dry sweep (readers never touch its state).
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> failed_steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> dry_sweeps{0};
    std::atomic<std::uint64_t> scan_pauses{0};
    std::atomic<std::uint64_t> scan_yields{0};

    Task* create(TaskFn fn, Task* continuation, std::uint32_t pending,
                 std::uint64_t a0, std::uint64_t a1,
                 std::uint64_t a2) override {
      Task* t;
      if (free_head != nullptr) {
        t = free_head;
        free_head = t->continuation;
        --free_count;
      } else {
        t = new Task;
      }
      init_task(*t, fn, continuation, pending, a0, a1, a2);
      return t;
    }

    void fork(Task* t) override {
      DCD_ASSERT(t != nullptr && t->fn != nullptr);
      bump(spawned);
      // Only a displaced older sibling is shared work: nobody else can run
      // the slot task, so keeping it needs no push and no wake.
      if (Task* older = std::exchange(next, t)) {
        owner->push_own(*this, older);
        owner->wake_one();
      }
    }

    std::size_t worker_id() const noexcept override { return id; }
    std::size_t workers() const noexcept override {
      return owner->workers_.size();
    }
  };

  static void init_task(Task& t, TaskFn fn, Task* continuation,
                        std::uint32_t pending, std::uint64_t a0,
                        std::uint64_t a1, std::uint64_t a2) {
    t.fn = fn;
    t.continuation = continuation;
    t.pending.store(pending, std::memory_order_relaxed);
    t.args[0] = a0;
    t.args[1] = a1;
    t.args[2] = a2;
    t.args[3] = 0;
  }

  Worker* self() const noexcept {
    return detail::tl_executor == this
               ? static_cast<Worker*>(detail::tl_worker)
               : nullptr;
  }

  // Forward a named window to the installed chaos controller, if any
  // (dcd_exec links dcd_dcas, so no hook indirection is needed — compare
  // reclaim::magazine_hook()).
  static void fire(const char* point) noexcept {
    if (dcas::ChaosController* c = dcas::ChaosController::acquire()) {
      c->notify(point);
      dcas::ChaosController::unpin();
    }
  }

  void worker_main(Worker& w) {
    detail::tl_worker = &w;
    detail::tl_executor = this;
    // Claim the process-wide dense id up front: the deque's reclamation
    // (EBR pins, MCAS descriptors) keys on it, and claiming it here
    // keeps slot churn out of the steady state.
    (void)util::ThreadRegistry::self();
    for (;;) {
      // DCD_HB(exec.stop.latch, role=acquire)
      if (stop_.load(std::memory_order_acquire)) break;
      if (Task* t = try_acquire(w)) {
        run(w, t);
        continue;
      }
      record_dry_sweep(w);
      // A worker still sweeping picks up an injected or forked task with
      // no futex wake, so it parks only once an idle spell outlasts
      // cfg_.spin_before_park.
      if (idle_past_window(w)) park(w);
    }
    detail::tl_worker = nullptr;
    detail::tl_executor = nullptr;
  }

  // One full acquisition attempt: the next slot, own deque, then every
  // other worker's deque once in randomized order, then the inbox. Returns
  // nullptr on a dry sweep.
  Task* try_acquire(Worker& w) {
    const bool sample =
        cfg_.latency_stride != 0 && ++w.lat_tick % cfg_.latency_stride == 0;
    const auto t0 = sample ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
    Task* got = std::exchange(w.next, nullptr);
    if (got == nullptr) {
      if (std::optional<Task*> t = Traits::pop_own(*w.deque)) got = *t;
    }
    if (got == nullptr) {
      const std::size_t n = workers_.size();
      fire(dcas::sync_point::kExecSteal);
      const std::size_t start = w.rng.below(n);
      for (std::size_t i = 0; i < n && got == nullptr; ++i) {
        const std::size_t v = (start + i) % n;
        if (v == w.id) continue;
        if (std::optional<Task*> t = Traits::steal(*workers_[v].deque)) {
          got = *t;
          bump(w.steals);
        } else {
          bump(w.failed_steals);
        }
      }
      if (got == nullptr) got = pop_inbox();
    }
    if (got != nullptr) {
      w.scan_backoff.on_success();
      if (sample) {
        const auto dt = std::chrono::steady_clock::now() - t0;
        w.lat.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count()));
      }
    }
    return got;
  }

  // Exactly one AdaptiveBackoff failure per dry sweep — the invariant the
  // idle-path accounting test pins: scan_pauses == dry_sweeps always, and
  // scan_yields is the backoff's exact escalation count. A dry sweep is
  // also where an external wait_all() is woken: the fence orders this
  // worker's completed stores before the drain_waiters_ read, and the
  // waiter fences between advertising and its in_flight() check, so either
  // the waiter sees the drained graph or this sweep sees the waiter.
  void record_dry_sweep(Worker& w) {
    bump(w.dry_sweeps);
    w.scan_backoff.on_failure();
    w.scan_pauses.store(w.scan_backoff.pauses(), std::memory_order_relaxed);
    w.scan_yields.store(w.scan_backoff.yields(), std::memory_order_relaxed);
    // DCD_HB(exec.drain.dekker, role=fence-acquire)
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (drain_waiters_.load(std::memory_order_relaxed) != 0) {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_cv_.notify_all();
    }
  }

  // Runs `t`, then every continuation its completion makes ready and the
  // task it left in the next slot, on this worker: a loop, not recursion,
  // so a chain of continuations or last children never grows the stack.
  void run(Worker& w, Task* t) {
    w.idle_since = {};  // a task ends the idle spell (idle_past_window)
    do {
      t->fn(w, *t);
      bump(w.executed);
      t = complete(w, t);
      if (t == nullptr) t = std::exchange(w.next, nullptr);
    } while (t != nullptr);
  }

  // Retire a finished task: recycle it and resolve its continuation. A
  // continuation this completion makes ready is returned for run() to
  // execute in place — it takes over this task's in-flight unit, so no
  // drain count moves (the push, pop and splice a deque round trip would
  // cost are skipped too). Otherwise the unit is retired with a release
  // store of completed, which in_flight()'s acquire loads pair with.
  Task* complete(Worker& w, Task* t) {
    Task* c = t->continuation;
    recycle(w, t);
    if (c != nullptr) {
      // Read fn (immutable after init) BEFORE the releasing decrement: for
      // a Latch the decrement to zero hands ownership to the joiner, who
      // may observe done(), return, and destroy the caller-owned Latch —
      // so no field of *c may be touched once the fetch_sub is published.
      const TaskFn cfn = c->fn;
      // DCD_HB(exec.join.pending, role=release)
      // DCD_HB(exec.join.pending, role=acquire)
      if (c->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (cfn != nullptr) return c;
        // Latch: wake external joiners (done_mu_/done_cv_ are executor
        // members — still no touch of the possibly-freed Latch).
        std::lock_guard<std::mutex> lock(done_mu_);
        done_cv_.notify_all();
      }
    }
    // Single writer, like bump(), but releasing: this worker's task effects.
    // DCD_HB(exec.drain.count, role=release)
    w.completed.store(w.completed.load(std::memory_order_relaxed) + 1,
                      std::memory_order_release);
    return nullptr;
  }

  // In-flight units by a double collect: every completed count first, then
  // every spawn count (the workers' and injected_). A unit's spawn happens
  // before its completion (the deque or inbox transfer orders them; a slot
  // task completes on the worker that forked it), so a completion the
  // first pass reads has its spawn counted by the second: the difference
  // never wraps, and 0 means every unit ever spawned before the first pass
  // had completed — the graph drained (DESIGN.md §14.1).
  std::uint64_t in_flight() const {
    std::uint64_t done = 0;
    for (const Worker& w : workers_) {
      // DCD_HB(exec.drain.count, role=acquire)
      done += w.completed.load(std::memory_order_acquire);
    }
    std::uint64_t spawned = injected_.load(std::memory_order_relaxed);
    for (const Worker& w : workers_) {
      spawned += w.spawned.load(std::memory_order_relaxed);
    }
    return spawned - done;
  }

  void recycle(Worker& w, Task* t) {
    if (w.free_count >= cfg_.freelist_cap) {
      delete t;
      return;
    }
    t->continuation = w.free_head;
    w.free_head = t;
    ++w.free_count;
  }

  void drain_freelist(Worker& w) {
    while (w.free_head != nullptr) {
      Task* t = w.free_head;
      w.free_head = t->continuation;
      delete t;
    }
    w.free_count = 0;
  }

  // Owner-end push; a full deque runs the task inline (depth-first), which
  // is the standard bounded fallback — the task is runnable by definition.
  void push_own(Worker& w, Task* t) {
    if (Traits::push_own(*w.deque, t) != deque::PushResult::kOkay) {
      run(w, t);
    }
  }

  // External submission. Lock-free left push onto a rotating victim when
  // the deque supports remote injection; the ABP deque (and the overflow
  // path) goes through the inbox.
  void inject(Task* t) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    fire(dcas::sync_point::kExecInject);
    if constexpr (Traits::kRemoteInject) {
      const std::size_t v =
          inject_cursor_.fetch_add(1, std::memory_order_relaxed) %
          workers_.size();
      if (Traits::inject(*workers_[v].deque, t) == deque::PushResult::kOkay) {
        return;
      }
    }
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(t);
  }

  Task* pop_inbox() {
    // try_lock: a contended inbox just means another worker is draining
    // it; this sweep stays dry and retries after backoff. FIFO, so
    // injected requests keep their arrival order.
    std::unique_lock<std::mutex> lock(inbox_mu_, std::try_to_lock);
    if (!lock.owns_lock() || inbox_.empty()) return nullptr;
    Task* t = inbox_.front();
    inbox_.pop_front();
    return t;
  }

  // Producer half of the Dekker handshake: publish the push (the fence
  // orders it before the parked_ read), then wake one sleeper if any
  // worker advertised itself.
  void wake_one() {
    // DCD_HB(exec.park.dekker, role=fence-acquire)
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) != 0) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        wake_epoch_.fetch_add(1, std::memory_order_relaxed);
      }
      cv_.notify_one();
    }
  }

  // Consumer half: sample the epoch, advertise, fence, and re-sweep. Any
  // task pushed before the producer's fence is visible to the re-sweep;
  // any task pushed after it sees parked_ != 0 and bumps the epoch —
  // which the wait predicate compares against the pre-advertise sample,
  // so the wakeup cannot be missed.
  void park(Worker& w) {
    const std::uint64_t epoch = wake_epoch_.load(std::memory_order_relaxed);
    parked_.fetch_add(1, std::memory_order_relaxed);
    // DCD_HB(exec.park.dekker, role=fence-release)
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (Task* t = try_acquire(w)) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      run(w, t);
      return;
    }
    if (stop_.load(std::memory_order_acquire)) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    bump(w.parks);
    fire(dcas::sync_point::kExecPark);
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return wake_epoch_.load(std::memory_order_relaxed) != epoch ||
               stop_.load(std::memory_order_relaxed);
      });
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  // The park rule. The idle clock starts at the first dry sweep since the
  // worker last ran a task (run() stops it); the worker parks once
  // cfg_.spin_before_park has passed on it and its scan backoff yields.
  // Time, not a sweep count: a saturated sweep is one sched_yield (~2 us),
  // so any count that bounds idle CPU parks the worker long before the next
  // request of a 3000/s stream, which then waits on a futex wake (§14.1).
  bool idle_past_window(Worker& w) {
    using Clock = std::chrono::steady_clock;
    if (w.idle_since == Clock::time_point{}) {
      w.idle_since = Clock::now();
      return false;
    }
    return w.scan_backoff.yielding() &&
           Clock::now() - w.idle_since >= cfg_.spin_before_park;
  }

  // Worker counters have one writer (the owner worker), so a relaxed
  // load+store increment suffices; a fetch_add would put a locked RMW on
  // every executed task and every dry sweep (cf. MagazinePool::bump).
  static void bump(std::atomic<std::uint64_t>& counter) noexcept {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  ExecConfig cfg_;
  std::vector<Worker> workers_;
  std::vector<std::thread> threads_;

  // Eventcount (see wake_one/park).
  std::atomic<std::uint64_t> parked_{0};
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<bool> stop_{false};
  // External wait_all() callers asleep on done_cv_ (see record_dry_sweep).
  std::atomic<std::uint64_t> drain_waiters_{0};
  // External submissions — the spawn count in_flight() adds to the
  // workers' — and the round-robin injection cursor.
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> inject_cursor_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::mutex inbox_mu_;
  std::deque<Task*> inbox_;
};

}  // namespace dcd::exec
