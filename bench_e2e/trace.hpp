// Span tracer for the benchmark's traced run.
//
// Spans are recorded by bench code around calls into each layer's public
// functions (traced.hpp wraps the policies and the deque; dcd_e2e.cpp wraps
// task bodies and executor calls). Nothing inside src/ is instrumented.
//
// Each thread owns one preallocated ThreadTrace. Closing a span updates
// that thread's exact per-kind aggregates (count, total and self time,
// where self time is the span minus the spans nested in it) and appends
// the span to the thread's buffer. When the outermost span of a thread
// closes, the whole tree is kept only if its job id is sampled (1 in
// kSampleStride), so the buffer holds complete trees of sampled jobs and
// never grows past its reserved capacity.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Layer : std::uint8_t { kTask, kExec, kDeque, kDcas, kReclaim };
inline constexpr std::size_t kLayers = 5;
inline constexpr const char* kLayerName[kLayers] = {"task", "exec", "deque",
                                                    "dcas", "reclaim"};

// Deque verbs are named after exec::DequeTraits: push_own/pop_own are the
// right end, steal/inject the left end.
enum class Kind : std::uint8_t {
  kTaskBody,
  kExecSubmit,
  kExecCreate,
  kExecFork,
  kDequePushOwn,
  kDequePopOwn,
  kDequeSteal,
  kDequeInject,
  kDcas,
  kReclaimGuard,
  kReclaimRetire,
  kReclaimAlloc,
  kReclaimFree,
};
inline constexpr std::size_t kKinds = 13;
inline constexpr const char* kKindName[kKinds] = {
    "task.body",      "exec.submit",    "exec.create",   "exec.fork",
    "deque.push_own", "deque.pop_own",  "deque.steal",   "deque.inject",
    "dcas.op",        "reclaim.guard",  "reclaim.retire", "reclaim.alloc",
    "reclaim.free"};
inline constexpr Layer kKindLayer[kKinds] = {
    Layer::kTask,    Layer::kExec,    Layer::kExec,    Layer::kExec,
    Layer::kDeque,   Layer::kDeque,   Layer::kDeque,   Layer::kDeque,
    Layer::kDcas,    Layer::kReclaim, Layer::kReclaim, Layer::kReclaim,
    Layer::kReclaim};

struct KindStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t misses = 0;  // pops that found the deque empty, full pushes
};

struct SpanRecord {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;  // 0 for a root span
  std::uint64_t job;
  Kind kind;
};

inline constexpr std::size_t kMaxTraceThreads = 8;
inline constexpr std::size_t kSpanCapacity = 1 << 14;  // per thread
inline constexpr std::uint64_t kSampleStride = 64;

// The job (executor workloads) or request or operation the calling thread
// is working for; stamped on its sampled span trees.
inline thread_local std::uint64_t tl_job = 0;

// Spans open only while the measured window is open.
inline std::atomic<bool> g_recording{false};

class alignas(64) ThreadTrace {
 public:
  std::array<KindStats, kKinds> stats{};
  std::vector<SpanRecord> spans;
  std::uint64_t dropped_trees = 0;  // sampled trees that did not fit
  std::size_t slot = 0;
  bool worker = true;

  bool open(Kind k) noexcept {
    if (depth_ == kMaxDepth) return false;
    const std::uint64_t parent = depth_ == 0 ? 0 : stack_[depth_ - 1].id;
    Open& o = stack_[depth_++];
    o.kind = k;
    o.child_ns = 0;
    o.id = (static_cast<std::uint64_t>(slot + 1) << 48) | ++next_id_;
    o.parent = parent;
    o.start_ns = now_ns();
    return true;
  }

  void close(bool miss) noexcept {
    const std::uint64_t end = now_ns();
    const Open o = stack_[--depth_];
    const std::uint64_t dur = end - o.start_ns;
    KindStats& s = stats[static_cast<std::size_t>(o.kind)];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - o.child_ns;
    s.misses += miss ? 1 : 0;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    if (spans.size() < spans.capacity()) {
      spans.push_back({o.start_ns, end, o.id, o.parent, 0, o.kind});
    } else {
      tree_overflow_ = true;
    }
    if (depth_ == 0) end_tree();
  }

 private:
  static constexpr int kMaxDepth = 16;
  struct Open {
    Kind kind;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::uint64_t parent;
  };

  // A pop learns its job only when it returns the task, so the job id is
  // read when the root closes and stamped on the whole tree.
  void end_tree() noexcept {
    const std::uint64_t job = tl_job;
    const bool sampled = job % kSampleStride == 0;
    if (!sampled || tree_overflow_) {
      if (sampled) ++dropped_trees;
      spans.resize(tree_start_);
    } else {
      for (std::size_t i = tree_start_; i < spans.size(); ++i) {
        spans[i].job = job;
      }
    }
    tree_start_ = spans.size();
    tree_overflow_ = false;
  }

  Open stack_[kMaxDepth];
  int depth_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t tree_start_ = 0;
  bool tree_overflow_ = false;
};

inline std::array<ThreadTrace, kMaxTraceThreads> g_threads;
inline std::atomic<std::size_t> g_claimed{0};
inline thread_local ThreadTrace* tl_trace = nullptr;

// Reserves every buffer; call once, before any traced thread starts.
inline void arm_tracer() {
  for (std::size_t i = 0; i < kMaxTraceThreads; ++i) {
    g_threads[i].slot = i;
    g_threads[i].spans.reserve(kSpanCapacity);
  }
}

// The calling thread's trace, claimed on first use; nullptr once every
// slot is taken (that thread's spans are then not recorded).
inline ThreadTrace* claim_trace(bool worker = true) noexcept {
  if (tl_trace == nullptr) {
    const std::size_t i = g_claimed.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxTraceThreads) return nullptr;
    tl_trace = &g_threads[i];
    tl_trace->worker = worker;
  }
  return tl_trace;
}

inline std::size_t claimed_traces() noexcept {
  const std::size_t n = g_claimed.load(std::memory_order_relaxed);
  return n < kMaxTraceThreads ? n : kMaxTraceThreads;
}

class Span {
 public:
  explicit Span(Kind k) noexcept {
    if (!g_recording.load(std::memory_order_relaxed)) return;
    ThreadTrace* t = claim_trace();
    if (t != nullptr && t->open(k)) t_ = t;
  }
  ~Span() {
    if (t_ != nullptr) t_->close(miss_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void miss() noexcept { miss_ = true; }

 private:
  ThreadTrace* t_ = nullptr;
  bool miss_ = false;
};

// Stands in for Span in the untraced build of a workload.
struct NoSpan {
  explicit constexpr NoSpan(Kind) noexcept {}
  constexpr void miss() noexcept {}
};

template <bool kTraced>
using SpanIf = std::conditional_t<kTraced, Span, NoSpan>;

// Writes the sampled spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). `other_data` is a JSON object stored under "otherData".
// Call only after every traced thread has stopped.
inline bool write_chrome_trace(const std::string& path, std::uint64_t t0_ns,
                               const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
               "\"traceEvents\":[", other_data.c_str());
  bool first = true;
  for (std::size_t i = 0; i < claimed_traces(); ++i) {
    const ThreadTrace& t = g_threads[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s %zu\"}}",
                 first ? "" : ",", t.slot, t.worker ? "worker" : "client",
                 t.slot);
    first = false;
    for (const SpanRecord& s : t.spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      std::fprintf(
          f,
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
          "\"id\":%llu,\"parent\":%llu}}",
          kKindName[k], kLayerName[static_cast<std::size_t>(kKindLayer[k])],
          t.slot, static_cast<double>(s.start_ns - t0_ns) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3,
          static_cast<unsigned long long>(s.job),
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2e
