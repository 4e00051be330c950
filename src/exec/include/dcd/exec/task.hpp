// Task handles for the fork/join work-stealing executor.
//
// The paper's §1 motivating application is exactly this subsystem: one
// general deque per worker, the owner operating LIFO at its right end and
// thieves taking the oldest task from the left. A task here is a plain
// function pointer plus a small argument block — cheap enough that the
// executor can push millions of them per second through the deques — and
// join is expressed with *continuation counting*: a task may name a
// continuation task with a positive `pending` count, and the completion of
// each child decrements that count; the child that brings it to zero
// schedules the continuation (or, for a Latch, signals the joiner).
//
// Tasks are 8-aligned (statically asserted) so `Task*` round-trips through
// deque::ValueCodec<Task*> — the deques store encoded task pointers, no
// extra indirection.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dcd/util/align.hpp"

namespace dcd::exec {

struct Task;

// Per-worker view handed to every task body: fork children onto the
// calling worker's own deque, allocate tasks from its freelist, and ask
// who/where you are. Implemented by Executor's Worker; tasks never see the
// executor type, so workloads are written once and run against any deque.
class TaskContext {
 public:
  // Allocate a task (worker-local freelist when possible). `pending` > 0
  // makes it a join target: it runs (or completes, for fn == nullptr)
  // only after `pending` children finish.
  virtual Task* create(void (*fn)(TaskContext&, Task&),
                       Task* continuation = nullptr,
                       std::uint32_t pending = 0, std::uint64_t a0 = 0,
                       std::uint64_t a1 = 0, std::uint64_t a2 = 0) = 0;

  // Make `t` runnable on the calling worker: it takes the worker's next
  // slot, and the task it displaces goes onto the worker's deque (owner
  // end), where thieves can reach it.
  virtual void fork(Task* t) = 0;

  virtual std::size_t worker_id() const noexcept = 0;
  virtual std::size_t workers() const noexcept = 0;

 protected:
  ~TaskContext() = default;
};

using TaskFn = void (*)(TaskContext&, Task&);

// One schedulable unit. `pending` is the only cross-thread field: children
// completing on other workers decrement it (acq_rel), and the decrement
// that observes 1 owns the task — that release/acquire edge is what makes
// the args written by children visible to the continuation body.
struct alignas(util::kCacheLineSize) Task {
  TaskFn fn = nullptr;        // nullptr => Latch node (never executed)
  Task* continuation = nullptr;
  std::atomic<std::uint32_t> pending{0};
  std::uint64_t args[4] = {0, 0, 0, 0};
};

static_assert(alignof(Task) >= 8,
              "Task* must round-trip through ValueCodec<Task*>");

// Caller-owned join handle: a Task with no body. Children created with
// `latch.task()` as their continuation decrement it on completion; done()
// acquiring zero means every child's effects are visible to the joiner.
class Latch {
 public:
  explicit Latch(std::uint32_t count) {
    task_.pending.store(count, std::memory_order_relaxed);
  }

  Task* task() noexcept { return &task_; }
  bool done() const noexcept {
    // DCD_HB(exec.join.pending, role=acquire)
    return task_.pending.load(std::memory_order_acquire) == 0;
  }

 private:
  Task task_;
};

}  // namespace dcd::exec
