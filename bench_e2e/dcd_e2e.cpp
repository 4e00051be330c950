// End-to-end benchmark program: runs one workload through the library's
// default executor and deque, checks every output, and prints one JSON
// object. bench_e2e/run.py builds it, runs it and names the metrics.
//
//   dcd_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--workers N] [--setup-only]
//
// Workloads (README.md says why each is here):
//   fib_forkjoin    closed loop: fib(15) fork/join jobs on 2 workers
//   quicksort       closed loop: three-way quicksort of 131072 keys, 2 workers
//   replay_open     open loop: 3000 req/s of seeded task trees into 2 workers
//   deque_two_ends  4 threads on one ListDeque<uint64_t>, two at each end
//
// With --trace 0 the run measures for S seconds. With --trace 1 it measures
// twice for S/2 seconds: first untraced, for the counters each layer keeps,
// then over the traced types of traced.hpp, for per-layer times and the
// sampled spans written to --trace-out. --setup-only times building the
// workload's state and stops. A check that fails counts in "mismatches".
// A job, request or deque thread that misses its deadline counts in
// "unfinished"; the executor holding it can then never drain, so the
// process prints its results and _exits instead of tearing it down.
// --workers overrides the workload's thread count (README: known failures).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dcd/dcas/telemetry.hpp"
#include "dcd/exec/executor.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stats.hpp"
#include "trace.hpp"
#include "traced.hpp"

namespace e2e {
namespace {

using exec::Latch;
using exec::Task;
using exec::TaskContext;
using exec::TaskFn;
namespace util = dcd::util;

// A closed-loop job, the open loop's drain and the deque threads' stop
// must finish within this; jobs take milliseconds.
constexpr double kDeadlineSeconds = 1.0;
constexpr double kMaxWarmupSeconds = 2.0;

constexpr std::uint64_t kFibN = 15;
constexpr std::size_t kSortKeys = 131072;
constexpr std::uint64_t kSortLeaf = 512;
constexpr double kReplayRate = 3000.0;
constexpr std::uint64_t kReplayMaxDepth = 6;
constexpr int kNodeSpin = 48;  // about 100 ns of dependent multiplies
constexpr std::size_t kTwoEndsThreads = 4;
constexpr std::size_t kPrefill = 1024;
// Each thread's pushes minus pops stay within +-kNetBound, so the deque
// never empties (4 * kNetBound < kPrefill) and no operation fails.
constexpr std::int64_t kNetBound = 192;
constexpr std::uint64_t kSampleEvery = 64;

std::uint64_t s2ns(double s) { return static_cast<std::uint64_t>(s * 1e9); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Linear interpolation between order statistics; `v` must be sorted.
double quantile(const std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

// --- one phase of a workload -------------------------------------------------

struct Phase {
  std::uint64_t seed;
  std::size_t workers;
  double warmup_s;
  double window_s;
  bool traced;
  bool setup_only;  // build and time the state, then stop
};

// The measured window. The CPU clocks give the executor's idle share: a
// parked worker uses no CPU. Opened and closed by the main thread.
struct Window {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  double proc_cpu_s = 0;
  double main_cpu_s = 0;

  void open(bool traced) {
    begin_ns = now_ns();
    proc_cpu_s = -cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    main_cpu_s = -cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    if (traced) g_recording.store(true, std::memory_order_relaxed);
  }
  void close() {
    g_recording.store(false, std::memory_order_relaxed);
    if (begin_ns == 0 || end_ns != 0) return;
    end_ns = now_ns();
    proc_cpu_s += cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    main_cpu_s += cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  }
  double seconds() const {
    return end_ns > begin_ns ? static_cast<double>(end_ns - begin_ns) * 1e-9
                             : 0.0;
  }
};

struct PhaseResult {
  // Jobs, requests or deque operations, warm-up included.
  std::uint64_t attempted = 0;
  std::uint64_t unfinished = 0;  // still running at the drain deadline
  std::uint64_t mismatches = 0;  // failed output checks
  std::uint64_t refused = 0;     // pushes that returned "full"
  bool abandoned = false;        // the process must _exit, not tear down
  double throughput = 0;         // completed units of the window per second
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> late_ns;  // replay generator lateness
  double setup_s = 0;
  double setup_rss_mib = 0;  // peak RSS once the state is built
  Window window;
  std::size_t workers = 0;
  // Layer counters over the executor's or deque's whole life. A unit is
  // one executed task, or one attempted deque operation.
  double units = 0;
  dcd::dcas::Counters dcas_counts;
  PoolCounts pool;
  bool has_exec = false;
  exec::ExecStats exec_stats;
  util::LatencyHistogram acquire;  // traced executors only
};

exec::ExecConfig exec_config(const Phase& ph) {
  exec::ExecConfig c;  // the library's defaults but for these two
  c.workers = ph.workers;
  c.latency_stride = ph.traced ? 64 : 0;
  return c;
}

// Peak resident set of this process's own address space (VmHWM).
// getrusage's ru_maxrss would also count the high-water mark of the
// process that exec'd this one, such as run.py's Python interpreter.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Builds the workload's state (the executor or deque and the generated
// input) and times it. The DCAS counters are zeroed first, while none of
// this phase's threads exist.
template <class State, class Make>
std::unique_ptr<State> timed_setup(const Phase& ph, PhaseResult& r,
                                   Make make) {
  dcd::dcas::Telemetry::reset();
  const std::uint64_t t0 = now_ns();
  auto s = std::make_unique<State>();
  make(*s);
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.setup_rss_mib = peak_rss_mib();
  r.workers = ph.workers;
  return s;
}

// Reads the executor's counters and tears it down. An executor that lost a
// task can never drain, so it is leaked instead, and its counters are read
// once its idle workers have parked.
template <class State>
void finish_executor(std::unique_ptr<State>& st, PhaseResult& r) {
  if (r.abandoned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  } else {
    st->ex->wait_all();
  }
  r.has_exec = true;
  r.exec_stats = st->ex->stats();
  r.acquire = st->ex->latency();
  r.pool = PoolRegistry::get().sum();
  r.units = static_cast<double>(r.exec_stats.executed);
  if (r.abandoned) {
    (void)st.release();
  } else {
    st.reset();  // joins the workers, so the DCAS counters are now exact
  }
  r.dcas_counts = dcd::dcas::Telemetry::snapshot();
}

// --- executor calls, traced or not ------------------------------------------

template <bool kTraced>
struct Ops {
  // `Owner` is the TaskContext inside a task body, or the Executor.
  template <class Owner>
  static Task* create(Owner& o, TaskFn fn, Task* cont, std::uint32_t pending,
                      std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                      std::uint64_t a2 = 0) {
    SpanIf<kTraced> s(Kind::kExecCreate);
    Task* t = o.create(fn, cont, pending, a0, a1, a2);
    if constexpr (kTraced) t->args[3] = tl_job;
    return t;
  }
  static void fork(TaskContext& ctx, Task* t) {
    SpanIf<kTraced> s(Kind::kExecFork);
    ctx.fork(t);
  }
  template <class Ex>
  static void submit(Ex& ex, Task* t) {
    SpanIf<kTraced> s(Kind::kExecSubmit);
    ex.submit(t);
  }
};

// Opens a task's body span and makes its job the thread's current one.
template <bool kTraced>
struct BodySpan {
  explicit BodySpan(const Task&) noexcept {}
};

template <>
struct BodySpan<true> {
  explicit BodySpan(const Task& t) noexcept : span(enter(t)) {}
  static Kind enter(const Task& t) noexcept {
    tl_job = t.args[3];
    return Kind::kTaskBody;
  }
  Span span;
};

std::uint64_t addr(const void* p) { return reinterpret_cast<std::uint64_t>(p); }

// Spins on the latch, as Executor::join has no timeout. The client thread
// has a core of its own, so the spin takes no time from the workers.
bool await_latch(const Latch& l, std::uint64_t deadline_ns) {
  for (std::uint32_t spins = 1; !l.done(); ++spins) {
    util::cpu_relax();
    if (spins % 1024 == 0 && now_ns() > deadline_ns) return false;
  }
  return true;
}

// One client submits a job, waits for it, checks it, and repeats: warm-up,
// then the window. Job::prepare() and Job::check() are not timed.
// Throughput is the window's jobs over the time they spent in the executor.
// A job past its deadline has lost a task (README: known failures). It
// counts as unfinished, its latch and buffers are leaked in case a worker
// still writes them, and the loop goes on with a copy.
template <bool kTraced, class Ex, class Job>
void closed_loop(Ex& ex, const Phase& ph, PhaseResult& r,
                 std::unique_ptr<Job> job) {
  const std::uint64_t window_at = now_ns() + s2ns(ph.warmup_s);
  const std::uint64_t end_at = window_at + s2ns(ph.window_s);
  std::uint64_t busy_ns = 0;
  for (std::uint64_t id = 0;; ++id) {
    job->prepare();
    const std::uint64_t t0 = now_ns();
    if (t0 >= end_at) break;
    const bool counted = t0 >= window_at;
    if (counted && r.window.begin_ns == 0) r.window.open(kTraced);
    tl_job = id;
    ++r.attempted;
    auto latch = std::make_unique<Latch>(1);
    Ops<kTraced>::submit(ex, job->root(ex, *latch));
    if (!await_latch(*latch, t0 + s2ns(kDeadlineSeconds))) {
      (void)latch.release();
      Job* stale = job.release();
      job = std::make_unique<Job>(*stale);
      ++r.unfinished;
      r.abandoned = true;
      continue;
    }
    const std::uint64_t dt = now_ns() - t0;
    if (!job->check()) ++r.mismatches;
    if (counted) {
      r.latency_ns.push_back(dt);
      busy_ns += dt;
    }
  }
  r.window.close();
  r.throughput =
      ratio(static_cast<double>(r.latency_ns.size()), busy_ns * 1e-9);
}

// --- fib_forkjoin ------------------------------------------------------------

template <bool kTraced>
void fib_sum(TaskContext&, Task& t) {
  BodySpan<kTraced> body(t);
  *reinterpret_cast<std::uint64_t*>(t.args[0]) = t.args[1] + t.args[2];
}

template <bool kTraced>
void fib_task(TaskContext& ctx, Task& t) {
  BodySpan<kTraced> body(t);
  using O = Ops<kTraced>;
  const std::uint64_t n = t.args[0];
  auto* out = reinterpret_cast<std::uint64_t*>(t.args[1]);
  if (n < 2) {
    *out = n;
    return;
  }
  Task* sum = O::create(ctx, &fib_sum<kTraced>, t.continuation, 2, t.args[1]);
  t.continuation = nullptr;  // the subtree now completes through `sum`
  O::fork(ctx, O::create(ctx, &fib_task<kTraced>, sum, 0, n - 1,
                         addr(&sum->args[1])));
  O::fork(ctx, O::create(ctx, &fib_task<kTraced>, sum, 0, n - 2,
                         addr(&sum->args[2])));
}

std::uint64_t fib_expected(std::uint64_t n) {
  std::uint64_t a = 0, b = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

template <bool kTraced>
struct FibJob {
  std::uint64_t result = 0;

  void prepare() { result = 0; }
  template <class Ex>
  Task* root(Ex& ex, Latch& l) {
    return Ops<kTraced>::create(ex, &fib_task<kTraced>, l.task(), 0, kFibN,
                                addr(&result));
  }
  bool check() const { return result == fib_expected(kFibN); }
};

template <class Mode>
PhaseResult run_fib(const Phase& ph) {
  using Ex = exec::Executor<typename Mode::template Deque<Task*>>;
  struct State {
    std::unique_ptr<Ex> ex;
  };
  PhaseResult r;
  auto st = timed_setup<State>(ph, r, [&](State& s) {
    s.ex = std::make_unique<Ex>(exec_config(ph));
  });
  if (ph.setup_only) return r;
  closed_loop<Mode::kTraced>(*st->ex, ph, r,
                             std::make_unique<FibJob<Mode::kTraced>>());
  finish_executor(st, r);
  return r;
}

// --- quicksort ---------------------------------------------------------------

template <bool kTraced>
void sort_join(TaskContext&, Task& t) {
  BodySpan<kTraced> body(t);
}

template <bool kTraced>
void sort_task(TaskContext& ctx, Task& t) {
  BodySpan<kTraced> body(t);
  using O = Ops<kTraced>;
  auto* a = reinterpret_cast<std::uint64_t*>(t.args[0]);
  const std::uint64_t lo = t.args[1];
  const std::uint64_t hi = t.args[2];
  if (hi - lo <= kSortLeaf) {
    std::sort(a + lo, a + hi);
    return;
  }
  // Three-way partition: [lo,m1) < pivot, [m1,m2) == pivot, [m2,hi) > pivot.
  const std::uint64_t pivot = a[lo + (hi - lo) / 2];
  std::uint64_t* m1 = std::partition(
      a + lo, a + hi, [pivot](std::uint64_t x) { return x < pivot; });
  std::uint64_t* m2 = std::partition(
      m1, a + hi, [pivot](std::uint64_t x) { return x == pivot; });
  Task* join = O::create(ctx, &sort_join<kTraced>, t.continuation, 2);
  t.continuation = nullptr;
  O::fork(ctx, O::create(ctx, &sort_task<kTraced>, join, 0, t.args[0], lo,
                         static_cast<std::uint64_t>(m1 - a)));
  O::fork(ctx, O::create(ctx, &sort_task<kTraced>, join, 0, t.args[0],
                         static_cast<std::uint64_t>(m2 - a), hi));
}

// Sorts a copy of the input, made untimed in prepare().
template <bool kTraced>
struct SortJob {
  const std::vector<std::uint64_t>* input = nullptr;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> work;

  void prepare() { work.assign(input->begin(), input->end()); }
  template <class Ex>
  Task* root(Ex& ex, Latch& l) {
    return Ops<kTraced>::create(ex, &sort_task<kTraced>, l.task(), 0,
                                addr(work.data()), 0, work.size());
  }
  bool check() const {
    return std::is_sorted(work.begin(), work.end()) &&
           std::accumulate(work.begin(), work.end(), std::uint64_t{0}) == sum;
  }
};

template <class Mode>
PhaseResult run_quicksort(const Phase& ph) {
  using Ex = exec::Executor<typename Mode::template Deque<Task*>>;
  struct State {
    std::vector<std::uint64_t> input;
    std::unique_ptr<Ex> ex;
  };
  PhaseResult r;
  auto st = timed_setup<State>(ph, r, [&](State& s) {
    // About four copies of each key, spread over 64 bits.
    util::Xoshiro256 rng(ph.seed);
    s.input.resize(kSortKeys);
    for (auto& v : s.input) {
      v = (rng.below(kSortKeys / 4) + 1) * 0x9e3779b97f4a7c15ull;
    }
    s.ex = std::make_unique<Ex>(exec_config(ph));
  });
  if (ph.setup_only) return r;
  auto job = std::make_unique<SortJob<Mode::kTraced>>();
  job->input = &st->input;
  job->sum = std::accumulate(st->input.begin(), st->input.end(),
                             std::uint64_t{0});
  closed_loop<Mode::kTraced>(*st->ex, ph, r, std::move(job));
  finish_executor(st, r);
  return r;
}

// --- replay_open -------------------------------------------------------------

struct Request {
  std::uint64_t due_ns;  // after the generator's start
  std::uint64_t depth;
  std::uint64_t weight;
};

struct alignas(64) RequestState {
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> remaining{0};
  std::atomic<std::uint64_t> done_ns{0};
};

RequestState* g_requests = nullptr;
std::atomic<std::uint64_t> g_requests_done{0};

std::uint64_t node_work(std::uint64_t depth, std::uint64_t weight) {
  std::uint64_t x = weight * 0x9e3779b97f4a7c15ull + depth;
  for (int i = 0; i < kNodeSpin; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
  }
  return x;
}

std::uint64_t tree_sum(std::uint64_t depth, std::uint64_t weight) {
  std::uint64_t s = node_work(depth, weight);
  if (depth > 0) {
    s += tree_sum(depth - 1, weight * 2) + tree_sum(depth - 1, weight * 2 + 1);
  }
  return s;
}

// One node of a request's binary tree: fork both children, do the node's
// work, fold it into the request. The request's last node stamps its
// completion time.
template <bool kTraced>
void replay_node(TaskContext& ctx, Task& t) {
  BodySpan<kTraced> body(t);
  using O = Ops<kTraced>;
  const std::uint64_t req = t.args[0];
  const std::uint64_t depth = t.args[1];
  const std::uint64_t weight = t.args[2];
  if (depth > 0) {
    for (std::uint64_t k = 0; k < 2; ++k) {
      O::fork(ctx, O::create(ctx, &replay_node<kTraced>, nullptr, 0, req,
                             depth - 1, weight * 2 + k));
    }
  }
  RequestState& s = g_requests[req];
  s.sum.fetch_add(node_work(depth, weight), std::memory_order_relaxed);
  if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    s.done_ns.store(now_ns(), std::memory_order_release);
    g_requests_done.fetch_add(1, std::memory_order_release);
  }
}

// The generator spins on the spare core: a sleeping generator wakes up to
// hundreds of microseconds late, which would swamp the executor's latency.
void spin_until_ns(std::uint64_t due) {
  while (now_ns() < due) util::cpu_relax();
}

template <class Mode>
PhaseResult run_replay(const Phase& ph) {
  constexpr bool kT = Mode::kTraced;
  using O = Ops<kT>;
  using Ex = exec::Executor<typename Mode::template Deque<Task*>>;
  struct State {
    std::vector<Request> reqs;
    std::unique_ptr<RequestState[]> live;
    std::unique_ptr<Ex> ex;
  };
  PhaseResult r;
  auto st = timed_setup<State>(ph, r, [&](State& s) {
    util::Xoshiro256 rng(ph.seed);
    const double total_s = ph.warmup_s + ph.window_s;
    for (double at = 0;;) {
      const double u =
          static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;  // (0,1]
      at += -std::log(u) / kReplayRate;
      if (at >= total_s) break;
      const std::uint64_t depth = rng.below(kReplayMaxDepth + 1);
      s.reqs.push_back({s2ns(at), depth, rng.next() >> 8});
    }
    s.live = std::make_unique<RequestState[]>(s.reqs.size());
    for (std::size_t i = 0; i < s.reqs.size(); ++i) {
      s.live[i].remaining.store((std::uint64_t{2} << s.reqs[i].depth) - 1,
                                std::memory_order_relaxed);
    }
    s.ex = std::make_unique<Ex>(exec_config(ph));
  });
  if (ph.setup_only) return r;
  State& s = *st;
  const std::size_t n = s.reqs.size();
  g_requests = s.live.get();
  g_requests_done.store(0, std::memory_order_relaxed);
  const std::uint64_t window_due = s2ns(ph.warmup_s);
  const std::uint64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& q = s.reqs[i];
    const std::uint64_t due = start + q.due_ns;
    spin_until_ns(due);
    if (q.due_ns >= window_due) {
      if (r.window.begin_ns == 0) r.window.open(kT);
      r.late_ns.push_back(now_ns() - due);
    }
    tl_job = i;
    O::submit(*s.ex, O::create(*s.ex, &replay_node<kT>, nullptr, 0, i,
                                q.depth, q.weight));
  }
  r.attempted = n;
  // A request that lost a task never completes (README: known failures).
  const std::uint64_t deadline = now_ns() + s2ns(kDeadlineSeconds);
  while (g_requests_done.load(std::memory_order_acquire) < n &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  r.window.close();
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& q = s.reqs[i];
    const RequestState& live = s.live[i];
    const std::uint64_t done = live.done_ns.load(std::memory_order_acquire);
    if (done == 0) {
      ++r.unfinished;
      r.abandoned = true;
      continue;
    }
    if (live.sum.load(std::memory_order_relaxed) !=
        tree_sum(q.depth, q.weight)) {
      ++r.mismatches;
    }
    if (q.due_ns < window_due) continue;
    ++counted;
    r.latency_ns.push_back(done - (start + q.due_ns));
  }
  r.throughput = ratio(static_cast<double>(counted), ph.window_s);
  finish_executor(st, r);
  return r;
}

// --- deque_two_ends ----------------------------------------------------------

struct alignas(64) Lane {
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;  // pushes that succeeded plus pops that got a value
  std::uint64_t refused = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t pushed_sum = 0;
  std::uint64_t popped_sum = 0;
  std::uint64_t pushed_xor = 0;
  std::uint64_t popped_xor = 0;
  std::uint64_t window_ok = 0;  // ok at window open, then the window's delta
  std::vector<std::uint64_t> samples;
  std::atomic<bool> done{false};
};

template <class Mode>
PhaseResult run_two_ends(const Phase& ph) {
  constexpr bool kT = Mode::kTraced;
  using D = typename Mode::template Deque<std::uint64_t>;
  struct State {
    std::unique_ptr<D> d;
    std::uint64_t prefill_sum = 0;
    std::uint64_t prefill_xor = 0;
    std::array<Lane, kTwoEndsThreads> lanes;
    std::atomic<int> stage{0};  // 0 warm-up, 1 window, 2 stop
    std::vector<std::thread> threads;
  };
  PhaseResult r;
  auto st = timed_setup<State>(ph, r, [&](State& s) {
    s.d = std::make_unique<D>(std::size_t{1} << 16);
    for (std::uint64_t v = 1; v <= kPrefill; ++v) {
      (void)s.d->push_right(v);
      s.prefill_sum += v;
      s.prefill_xor ^= v;
    }
  });
  if (ph.setup_only) return r;
  State& s = *st;
  r.workers = kTwoEndsThreads;
  const std::uint64_t window_at = now_ns() + s2ns(ph.warmup_s);
  const std::uint64_t end_at = window_at + s2ns(ph.window_s);

  // Threads 0 and 1 work the left end, 2 and 3 the right. Thread 0 is the
  // main thread and moves the stages.
  auto lane_main = [&](std::size_t id) {
    Lane& L = s.lanes[id];
    L.samples.reserve(std::size_t{1} << 18);
    util::Xoshiro256 rng(ph.seed * 0x9e3779b97f4a7c15ull + id + 1);
    D& d = *s.d;
    const bool left = id < 2;
    std::int64_t net = 0;
    std::uint64_t seq = 0;
    int stage = 0;
    for (std::uint64_t n = 0;; ++n) {
      bool sample = false;
      if (n % kSampleEvery == 0) {
        if (id == 0) {
          const std::uint64_t now = now_ns();
          if (stage == 0 && now >= window_at) {
            r.window.open(kT);
            s.stage.store(1, std::memory_order_release);
          } else if (stage == 1 && now >= end_at) {
            r.window.close();
            s.stage.store(2, std::memory_order_release);
          }
        }
        const int seen = s.stage.load(std::memory_order_acquire);
        if (seen == 2) break;
        if (seen != stage) L.window_ok = L.ok;
        stage = seen;
        sample = stage == 1;
      }
      bool push = rng.below(2) == 0;
      if (net >= kNetBound) push = false;
      if (net <= -kNetBound) push = true;
      if constexpr (kT) tl_job = (std::uint64_t{id} << 48) | n;
      const std::uint64_t t0 = sample ? now_ns() : 0;
      if (push) {
        const std::uint64_t v = (std::uint64_t{id + 1} << 40) | ++seq;
        if ((left ? d.push_left(v) : d.push_right(v)) ==
            dcd::deque::PushResult::kOkay) {
          ++L.ok;
          ++L.pushes;
          L.pushed_sum += v;
          L.pushed_xor ^= v;
          ++net;
        } else {
          ++L.refused;
        }
      } else if (const auto v = left ? d.pop_left() : d.pop_right()) {
        ++L.ok;
        ++L.pops;
        L.popped_sum += *v;
        L.popped_xor ^= *v;
        --net;
      }
      if (sample) L.samples.push_back(now_ns() - t0);
      ++L.ops;
    }
    L.window_ok = L.ok - L.window_ok;
    L.done.store(true, std::memory_order_release);
  };
  for (std::size_t id = 1; id < kTwoEndsThreads; ++id) {
    s.threads.emplace_back(lane_main, id);
  }
  lane_main(0);

  const std::uint64_t deadline = now_ns() + s2ns(kDeadlineSeconds);
  for (std::size_t id = 1; id < kTwoEndsThreads && !r.abandoned; ++id) {
    while (!s.lanes[id].done.load(std::memory_order_acquire)) {
      if (now_ns() > deadline) {
        r.abandoned = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::uint64_t ok = 0, pushes = 0, pops = 0, sum = s.prefill_sum,
                x = s.prefill_xor;
  for (const Lane& L : s.lanes) {
    if (!L.done.load(std::memory_order_acquire)) {
      ++r.attempted;  // its counters are still being written
      ++r.unfinished;
      continue;
    }
    r.attempted += L.ops;
    r.refused += L.refused;
    ok += L.window_ok;
    pushes += L.pushes;
    pops += L.pops;
    sum += L.pushed_sum - L.popped_sum;
    x ^= L.pushed_xor ^ L.popped_xor;
    r.latency_ns.insert(r.latency_ns.end(), L.samples.begin(),
                        L.samples.end());
  }
  if (r.abandoned) {
    (void)st.release();  // a thread is still inside the deque
    return r;
  }
  for (std::thread& t : s.threads) t.join();
  r.throughput = ratio(static_cast<double>(ok), r.window.seconds());
  r.units = static_cast<double>(r.attempted);
  r.pool = PoolRegistry::get().sum();
  r.dcas_counts = dcd::dcas::Telemetry::snapshot();
  // Conservation: what a final drain returns is what was never popped.
  std::uint64_t left = 0, left_sum = 0, left_xor = 0;
  while (const auto v = s.d->pop_left()) {
    ++left;
    left_sum += *v;
    left_xor ^= *v;
  }
  if (left != kPrefill + pushes - pops || left_sum != sum || left_xor != x) {
    ++r.mismatches;
  }
  return r;
}

// --- results -----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

void counter_metrics(Metrics& m, const PhaseResult& r) {
  const dcd::dcas::Counters& c = r.dcas_counts;
  const PoolCounts& p = r.pool;
  const exec::ExecStats& e = r.exec_stats;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["dcas.calls_per_unit"] = ratio(d(c.dcas_calls), r.units);
  m["dcas.fail_ratio"] = ratio(d(c.dcas_failures), d(c.dcas_calls));
  m["dcas.cas_per_unit"] = ratio(d(c.cas_ops), r.units);
  m["dcas.helps_per_unit"] = ratio(d(c.helps), r.units);
  m["dcas.descriptors_per_unit"] = ratio(d(c.descriptors), r.units);
  m["reclaim.magazine_hit_ratio"] = ratio(d(p.hits), d(p.hits + p.misses));
  m["reclaim.refills_per_kunit"] = 1e3 * ratio(d(p.refills), r.units);
  m["reclaim.flushes_per_kunit"] = 1e3 * ratio(d(p.flushes), r.units);
  m["reclaim.alloc_failures"] = d(p.failures);
  const double ktasks = d(e.executed) / 1e3;
  m["exec.steals_per_ktask"] = ratio(d(e.steals), ktasks);
  m["exec.steal_success_ratio"] =
      ratio(d(e.steals), d(e.steals + e.failed_steals));
  m["exec.parks_per_ktask"] = ratio(d(e.parks), ktasks);
  m["exec.dry_sweeps_per_ktask"] = ratio(d(e.dry_sweeps), ktasks);
  m["exec.scan_yields_per_ktask"] = ratio(d(e.scan_yields), ktasks);
  m["generator.late_p99_us"] = quantile(r.late_ns, 0.99) / 1e3;
  m["generator.late_max_us"] =
      r.late_ns.empty() ? 0.0 : static_cast<double>(r.late_ns.back()) / 1e3;
}

// Per-layer times from the traced phase. Busy shares are self time on the
// worker threads over worker time (workers x window); whatever no span
// covers (the executor's own loop, backoff, parking) is "other".
Metrics trace_metrics(Metrics& m, const PhaseResult& r) {
  std::array<KindStats, kKinds> all{};
  std::array<double, kLayers> self{};
  for (std::size_t i = 0; i < claimed_traces(); ++i) {
    const ThreadTrace& t = g_threads[i];
    for (std::size_t k = 0; k < kKinds; ++k) {
      const KindStats& s = t.stats[k];
      all[k].count += s.count;
      all[k].total_ns += s.total_ns;
      all[k].self_ns += s.self_ns;
      all[k].misses += s.misses;
      if (t.worker) {
        self[static_cast<std::size_t>(kKindLayer[k])] +=
            static_cast<double>(s.self_ns);
      }
    }
  }
  const auto at = [&](Kind k) -> const KindStats& {
    return all[static_cast<std::size_t>(k)];
  };
  const auto mean = [&](Kind k) {
    return ratio(static_cast<double>(at(k).total_ns),
                 static_cast<double>(at(k).count));
  };
  const double worker_ns =
      static_cast<double>(r.workers) * r.window.seconds() * 1e9;
  Metrics share;
  double covered = 0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    share[kLayerName[l]] = ratio(self[l], worker_ns);
    covered += share[kLayerName[l]];
  }
  share["other"] = worker_ns > 0 ? 1.0 - covered : 0.0;

  m["dcas.ns_mean"] = mean(Kind::kDcas);
  m["dcas.busy_share"] = share["dcas"];
  m["deque.push_own.ns_mean"] = mean(Kind::kDequePushOwn);
  m["deque.pop_own.ns_mean"] = mean(Kind::kDequePopOwn);
  m["deque.steal.ns_mean"] = mean(Kind::kDequeSteal);
  m["deque.inject.ns_mean"] = mean(Kind::kDequeInject);
  double deque_self = 0, deque_calls = 0;
  for (Kind k : {Kind::kDequePushOwn, Kind::kDequePopOwn, Kind::kDequeSteal,
                 Kind::kDequeInject}) {
    deque_self += static_cast<double>(at(k).self_ns);
    deque_calls += static_cast<double>(at(k).count);
  }
  m["deque.self_ns_mean"] = ratio(deque_self, deque_calls);
  m["deque.busy_share"] = share["deque"];
  m["deque.pop_own.empty_ratio"] =
      ratio(static_cast<double>(at(Kind::kDequePopOwn).misses),
            static_cast<double>(at(Kind::kDequePopOwn).count));
  m["deque.steal.empty_ratio"] =
      ratio(static_cast<double>(at(Kind::kDequeSteal).misses),
            static_cast<double>(at(Kind::kDequeSteal).count));
  m["deque.push.full_ratio"] = ratio(
      static_cast<double>(at(Kind::kDequePushOwn).misses +
                          at(Kind::kDequeInject).misses),
      static_cast<double>(at(Kind::kDequePushOwn).count +
                          at(Kind::kDequeInject).count));
  m["reclaim.alloc_ns_mean"] = mean(Kind::kReclaimAlloc);
  m["reclaim.free_ns_mean"] = mean(Kind::kReclaimFree);
  m["reclaim.guard_ns_mean"] = mean(Kind::kReclaimGuard);
  m["reclaim.retire_ns_mean"] = mean(Kind::kReclaimRetire);
  m["reclaim.busy_share"] = share["reclaim"];
  m["exec.submit_ns_mean"] = mean(Kind::kExecSubmit);
  m["exec.create_ns_mean"] = mean(Kind::kExecCreate);
  m["exec.fork_ns_mean"] = mean(Kind::kExecFork);
  m["exec.busy_share"] = share["exec"];
  m["exec.acquire_ns_p50"] =
      static_cast<double>(r.acquire.percentile(0.50));
  m["exec.acquire_ns_p99"] =
      static_cast<double>(r.acquire.percentile(0.99));
  const double worker_cpu = r.window.proc_cpu_s - r.window.main_cpu_s;
  m["exec.idle_share"] =
      r.has_exec
          ? std::clamp(1.0 - ratio(worker_cpu, worker_ns * 1e-9), 0.0, 1.0)
          : 0.0;
  m["task.body_share"] = share["task"];
  m["trace.other_share"] = share["other"];
  return share;
}


std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) q += c;
    }
    return raw(k, q + "\"");
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& obj(const std::string& k, const Metrics& m) {
    Json j;
    for (const auto& [name, v] : m) j.num(name, v);
    return raw(k, j.done());
  }
  Json& raw(const std::string& k, const std::string& v) {
    s_ += (s_.size() > 1 ? ",\"" : "\"") + k + "\":" + v;
    return *this;
  }
  std::string done() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::size_t workers = 0;
  bool setup_only = false;
};

template <class Mode>
PhaseResult run_workload(const std::string& w, const Phase& ph) {
  if (w == "fib_forkjoin") return run_fib<Mode>(ph);
  if (w == "quicksort") return run_quicksort<Mode>(ph);
  if (w == "replay_open") return run_replay<Mode>(ph);
  return run_two_ends<Mode>(ph);
}

// Two workers and the client or generator leave a core spare. With three
// workers the executor loses a task about once a minute (README: known
// failures), so those runs would not finish.
std::size_t default_workers(const std::string& w) {
  return w == "deque_two_ends" ? kTwoEndsThreads : 2;
}

int usage() {
  std::fprintf(stderr,
               "usage: dcd_e2e --workload fib_forkjoin|quicksort|replay_open|"
               "deque_two_ends --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--workers N] [--setup-only]\n");
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 == argc) return usage();
    const char* v = argv[++i];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--workers") o.workers = std::strtoull(v, nullptr, 10);
    else return usage();
  }
  const bool known =
      o.workload == "fib_forkjoin" || o.workload == "quicksort" ||
      o.workload == "replay_open" || o.workload == "deque_two_ends";
  if (!known || !(o.seconds > 0 && o.seconds <= 3600)) return usage();
  if (o.workers == 0) o.workers = default_workers(o.workload);
  if (o.workload == "deque_two_ends") o.workers = kTwoEndsThreads;
  if (o.workers > 8) return usage();

  const double window = o.trace ? o.seconds / 2 : o.seconds;
  const Phase ph{o.seed, o.workers, std::min(kMaxWarmupSeconds, window / 5),
                 window, false, o.setup_only};

  PhaseResult a = run_workload<Untraced>(o.workload, ph);
  if (o.setup_only) {
    std::printf("%s\n", Json()
                             .num("setup_s", a.setup_s)
                             .num("setup_rss_mib", a.setup_rss_mib)
                             .done()
                             .c_str());
    return 0;
  }
  const double rss = peak_rss_mib();
  std::sort(a.latency_ns.begin(), a.latency_ns.end());
  std::sort(a.late_ns.begin(), a.late_ns.end());

  Metrics metrics;
  Metrics busy;
  PhaseResult b;
  if (!o.trace) {
    metrics["throughput_per_s"] = a.throughput;
    metrics["latency_p50_us"] = quantile(a.latency_ns, 0.50) / 1e3;
    metrics["latency_p95_us"] = quantile(a.latency_ns, 0.95) / 1e3;
    metrics["setup_s"] = a.setup_s;
    metrics["setup_rss_mib"] = a.setup_rss_mib;
  } else {
    counter_metrics(metrics, a);
    metrics["reclaim.peak_rss_mib"] = rss;
    arm_tracer();
    // The client thread of an executor workload is not a worker.
    claim_trace(/*worker=*/o.workload == "deque_two_ends");
    Phase traced = ph;
    traced.traced = true;
    b = run_workload<Traced>(o.workload, traced);
    std::sort(b.latency_ns.begin(), b.latency_ns.end());
    busy = trace_metrics(metrics, b);
    // Traced over untraced time per unit of work: a request's median
    // latency in the open loop, 1 / throughput elsewhere.
    metrics["trace.overhead_ratio"] =
        o.workload == "replay_open"
            ? ratio(quantile(b.latency_ns, 0.5), quantile(a.latency_ns, 0.5))
            : ratio(a.throughput, b.throughput);
  }

  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < claimed_traces(); ++i) {
    dropped += g_threads[i].dropped_trees;
  }
  bool trace_written = false;
  if (o.trace && !o.trace_out.empty()) {
    const std::string other =
        Json()
            .str("workload", o.workload)
            .num("seed", static_cast<double>(o.seed))
            .num("window_s", b.window.seconds())
            .num("worker_threads", static_cast<double>(b.workers))
            .num("dropped_trees", static_cast<double>(dropped))
            .obj("busy_share", busy)
            .done();
    trace_written = write_chrome_trace(o.trace_out, b.window.begin_ns, other);
  }

  const std::uint64_t mismatches = a.mismatches + b.mismatches;
  const std::uint64_t unfinished = a.unfinished + b.unfinished;
  const std::uint64_t failed = mismatches + unfinished + a.refused + b.refused;
  Metrics params{{"workers", static_cast<double>(o.workers)},
                 {"warmup_s", ph.warmup_s},
                 {"window_s", ph.window_s},
                 {"deadline_s", kDeadlineSeconds}};
  if (o.workload == "fib_forkjoin") {
    params["fib_n"] = kFibN;
  } else if (o.workload == "quicksort") {
    params["keys"] = kSortKeys;
    params["leaf"] = kSortLeaf;
  } else if (o.workload == "replay_open") {
    params["rate_per_s"] = kReplayRate;
    params["max_depth"] = kReplayMaxDepth;
    params["node_spin"] = kNodeSpin;
  } else {
    params["prefill"] = kPrefill;
    params["net_bound"] = kNetBound;
    params["sample_every"] = kSampleEvery;
  }
  const std::string context =
      Json().str("cpu_model", cpu_model())
          .num("nproc", std::thread::hardware_concurrency())
#ifdef NDEBUG
          .str("build_type", "release")
#else
          .str("build_type", "debug")
#endif
          .str("compiler", compiler_id())
          .done();
  // p99 is reported but not gated: where vCPUs are preempted for tens of
  // milliseconds it moves by a factor of two between open-loop runs.
  const Metrics tail{{"latency_p99_us", quantile(a.latency_ns, 0.99) / 1e3}};
  const Metrics samples{
      {"latency", static_cast<double>(a.latency_ns.size())},
      {"generator_lateness", static_cast<double>(a.late_ns.size())},
      {"traced_latency", static_cast<double>(b.latency_ns.size())}};
  std::string out = Json().str("workload", o.workload)
                        .num("seed", static_cast<double>(o.seed))
                        .boolean("traced", o.trace)
                        .raw("context", context)
                        .obj("params", params)
                        .boolean("correct", mismatches == 0)
                        .num("attempted",
                             static_cast<double>(a.attempted + b.attempted))
                        .num("failed", static_cast<double>(failed))
                        .num("unfinished", static_cast<double>(unfinished))
                        .num("mismatches", static_cast<double>(mismatches))
                        .obj("samples", samples)
                        .obj("tail", tail)
                        .obj("busy_share", busy)
                        .str("trace_file", trace_written ? o.trace_out : "")
                        .obj("metrics", metrics)
                        .done();
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  if (a.abandoned || b.abandoned) _exit(0);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::run(argc, argv); }
