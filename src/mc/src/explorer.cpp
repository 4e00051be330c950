#include "dcd/mc/explorer.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "deques.hpp"

#include "dcd/dcas/global_lock.hpp"
#include "dcd/dcas/sched.hpp"
#include "dcd/mc/mutation.hpp"
#include "dcd/mc/runtime.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/verify/linearizability.hpp"

namespace dcd::mc {

const char* violation_kind_name(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kNone: return "none";
    case ViolationKind::kRepInvariant: return "rep-invariant";
    case ViolationKind::kNotLinearizable: return "not-linearizable";
    case ViolationKind::kCheckerLimit: return "checker-limit";
    case ViolationKind::kStepBudget: return "step-budget";
  }
  return "?";
}

namespace {

// The model-checking policy stack: scheduler on the outside (classifies
// the access the algorithm intended), mutation underneath (corrupts what
// reaches memory), serialising lock policy at the bottom.
using McPolicy = dcas::SchedDcasT<MutantDcasT<dcas::GlobalLockDcas>>;

static_assert(dcas::DcasPolicy<McPolicy>);

std::string op_summary(const verify::Operation& op) {
  std::string s = verify::op_name(op.type);
  if (op.type == verify::OpType::kPushRight ||
      op.type == verify::OpType::kPushLeft) {
    s += "(" + std::to_string(op.arg) + ")->" + (op.push_ok ? "ok" : "full");
  } else {
    s += "->" + (op.pop_has_value ? std::to_string(op.pop_value)
                                  : std::string("empty"));
  }
  return s;
}

// Per-exploration scenario executor: fresh deque + recorded setup per
// execution, thread bodies recording their ops, audit/fingerprint taps.
template <typename D>
class Harness {
 public:
  explicit Harness(const Scenario& sc) : sc_(sc) {}

  void reset() {
    deque_.reset();
    deque_ = std::make_unique<D>(sc_.capacity);
    setup_.ops.clear();
    thread_ops_.assign(sc_.threads.size(), {});
    for (const ScenarioOp& op : sc_.setup) {
      setup_.append(run_op(*deque_, op));
    }
  }

  std::vector<std::function<void()>> bodies() {
    std::vector<std::function<void()>> out;
    out.reserve(sc_.threads.size());
    for (std::size_t t = 0; t < sc_.threads.size(); ++t) {
      out.push_back([this, t] {
        for (const ScenarioOp& op : sc_.threads[t]) {
          thread_ops_[t].push_back(run_op(*deque_, op));
        }
      });
    }
    return out;
  }

  verify::History history() const {
    verify::History h = setup_;
    for (const auto& ops : thread_ops_) {
      for (const verify::Operation& op : ops) h.append(op);
    }
    return h;
  }

  verify::AuditResult audit() const { return DequeTraits<D>::audit(*deque_); }
  bool two_deleted() const { return DequeTraits<D>::two_deleted(*deque_); }
  std::size_t checker_capacity() const {
    return DequeTraits<D>::checker_capacity(sc_.capacity);
  }

  std::string outcome_fingerprint() const {
    std::string s;
    for (const auto& ops : thread_ops_) {
      for (const verify::Operation& op : ops) {
        s += op_summary(op);
        s += ';';
      }
      s += '|';
    }
    s += DequeTraits<D>::fingerprint(*deque_);
    return s;
  }

 private:
  const Scenario& sc_;
  std::unique_ptr<D> deque_;
  verify::History setup_;
  std::vector<std::vector<verify::Operation>> thread_ops_;
};

// --- step/footprint plumbing ----------------------------------------------

struct Footprint {
  const void* addr[2] = {nullptr, nullptr};
  int n = 0;
  bool may_write = false;
};

Footprint footprint_of(const PendingStep& p) {
  Footprint f;
  if (p.is_start || !p.valid) return f;
  f.addr[f.n++] = p.access.a;
  if (p.access.b != nullptr) f.addr[f.n++] = p.access.b;
  f.may_write = p.access.may_write();
  return f;
}

struct TraceStep {
  int tid = -1;
  bool is_start = false;
  const void* addr[2] = {nullptr, nullptr};
  int naddr = 0;
  bool wrote = false;
  dcas::DcasShape shape = dcas::DcasShape::kGeneric;
  bool is_dcas = false;
  bool is_cas = false;  // single-word CAS — elimination-slot transitions
};

TraceStep trace_step_of(const StepRecord& rec) {
  TraceStep ts;
  ts.tid = rec.tid;
  ts.is_start = rec.is_start;
  if (!rec.is_start) {
    ts.addr[ts.naddr++] = rec.a;
    if (rec.b != nullptr) ts.addr[ts.naddr++] = rec.b;
    ts.wrote = rec.wrote;
    ts.shape = rec.shape;
    ts.is_dcas = rec.kind == dcas::AccessKind::kDcas ||
                 rec.kind == dcas::AccessKind::kDcasView;
    ts.is_cas = rec.kind == dcas::AccessKind::kCas;
  }
  return ts;
}

// Successful DCAS *and* single-word CAS steps both count toward the shape
// stats: the elimination protocol's transitions are classified CASes
// (elim.offer/take/cancel/clear), and the acceptance tests assert the
// explorer actually drove them.
bool counts_toward_shapes(const TraceStep& ts) {
  return (ts.is_dcas || ts.is_cas) && ts.wrote;
}

bool overlaps(const Footprint& f, const TraceStep& s) {
  for (int i = 0; i < f.n; ++i) {
    for (int j = 0; j < s.naddr; ++j) {
      if (f.addr[i] == s.addr[j]) return true;
    }
  }
  return false;
}

// A sleeping thread stays asleep across an executed step iff its pending
// transition commutes with it: disjoint footprints, or a shared address no
// side writes (the executed step's write is exact; the pending side's is
// conservative may-write).
bool independent(const Footprint& pending, const TraceStep& executed) {
  if (pending.n == 0 || executed.naddr == 0) return true;
  if (!overlaps(pending, executed)) return true;
  return !executed.wrote && !pending.may_write;
}

// --- DPOR race analysis ---------------------------------------------------

struct Node {
  int chosen = -1;
  std::set<int> backtrack;
  std::set<int> done;
  std::set<int> sleep_base;  // sleep set on entry to this state
};

void join_clock(std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(a[i], b[i]);
}

// Flanagan–Godefroid backtrack-point computation over one completed
// execution: vector clocks order the trace by program order + conflicts;
// for each conflicting, concurrent pair (i, j) the first alternative that
// could reverse it is added to the backtrack set at pre(i).
void dpor_analyze(const std::vector<TraceStep>& trace,
                  std::vector<Node>& nodes, int threads) {
  const int n = static_cast<int>(trace.size());
  std::vector<int> last_step_of(static_cast<std::size_t>(threads), -1);
  for (int i = 0; i < n; ++i) last_step_of[static_cast<std::size_t>(trace[static_cast<std::size_t>(i)].tid)] = i;
  // Executions run every thread to completion, so "q enabled at pre(i)"
  // reduces to "q still has a step at or after i".
  const auto enabled_at = [&](int i, int q) {
    return last_step_of[static_cast<std::size_t>(q)] >= i;
  };

  std::vector<std::vector<std::uint32_t>> clock_of(
      static_cast<std::size_t>(n));
  std::vector<std::vector<std::uint32_t>> per_thread(
      static_cast<std::size_t>(threads),
      std::vector<std::uint32_t>(static_cast<std::size_t>(threads), 0));
  std::map<const void*, std::vector<std::uint32_t>> write_clock;
  std::map<const void*, std::vector<std::uint32_t>> read_clock;
  std::map<const void*, int> last_write;
  std::map<const void*, std::vector<int>> last_reads;

  std::vector<std::pair<int, int>> races;
  for (int j = 0; j < n; ++j) {
    const TraceStep& s = trace[static_cast<std::size_t>(j)];
    const std::size_t p = static_cast<std::size_t>(s.tid);
    per_thread[p][p] += 1;
    // Race test against the clock *before* joining this address's history
    // (joining first would order i before j through the very edge under
    // test).
    const std::vector<std::uint32_t> base = per_thread[p];
    const auto happens_before = [&](int i) {
      const std::size_t ti =
          static_cast<std::size_t>(trace[static_cast<std::size_t>(i)].tid);
      return clock_of[static_cast<std::size_t>(i)][ti] <= base[ti];
    };
    for (int ai = 0; ai < s.naddr; ++ai) {
      const void* a = s.addr[ai];
      const auto wit = last_write.find(a);
      if (wit != last_write.end() &&
          trace[static_cast<std::size_t>(wit->second)].tid != s.tid &&
          !happens_before(wit->second)) {
        races.emplace_back(wit->second, j);
      }
      if (s.wrote) {
        const auto rit = last_reads.find(a);
        if (rit != last_reads.end()) {
          for (int q = 0; q < threads; ++q) {
            const int i = rit->second[static_cast<std::size_t>(q)];
            if (i >= 0 && q != s.tid && !happens_before(i)) {
              races.emplace_back(i, j);
            }
          }
        }
      }
    }
    std::vector<std::uint32_t> clk = base;
    for (int ai = 0; ai < s.naddr; ++ai) {
      const void* a = s.addr[ai];
      const auto wit = write_clock.find(a);
      if (wit != write_clock.end()) join_clock(clk, wit->second);
      if (s.wrote) {
        const auto rit = read_clock.find(a);
        if (rit != read_clock.end()) join_clock(clk, rit->second);
      }
    }
    clock_of[static_cast<std::size_t>(j)] = clk;
    per_thread[p] = clk;
    for (int ai = 0; ai < s.naddr; ++ai) {
      const void* a = s.addr[ai];
      if (s.wrote) {
        write_clock[a] = clk;
        read_clock.erase(a);
        last_write[a] = j;
        last_reads[a].assign(static_cast<std::size_t>(threads), -1);
      }
      // Every access (including a successful write) reads its footprint.
      auto& rc = read_clock[a];
      if (rc.empty()) rc.assign(static_cast<std::size_t>(threads), 0);
      join_clock(rc, clk);
      auto& lr = last_reads[a];
      if (lr.empty()) lr.assign(static_cast<std::size_t>(threads), -1);
      lr[p] = j;
    }
  }

  for (const auto& [i, j] : races) {
    // Threads that could run at pre(i) and lead to j's side of the race:
    // j's own thread, or anything with a step in (i, j) happens-before j.
    std::set<int> alternatives;
    for (int q = 0; q < threads; ++q) {
      if (!enabled_at(i, q)) continue;
      if (q == trace[static_cast<std::size_t>(j)].tid) {
        alternatives.insert(q);
        continue;
      }
      for (int k = i + 1; k < j; ++k) {
        const TraceStep& sk = trace[static_cast<std::size_t>(k)];
        if (sk.tid == q &&
            clock_of[static_cast<std::size_t>(k)][static_cast<std::size_t>(
                q)] <=
                clock_of[static_cast<std::size_t>(j)][static_cast<std::size_t>(
                    q)]) {
          alternatives.insert(q);
          break;
        }
      }
    }
    Node& nd = nodes[static_cast<std::size_t>(i)];
    bool covered = false;
    for (const int q : alternatives) {
      if (nd.backtrack.count(q) != 0) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    if (!alternatives.empty()) {
      nd.backtrack.insert(*alternatives.begin());
    } else {
      for (int q = 0; q < threads; ++q) {
        if (enabled_at(i, q)) nd.backtrack.insert(q);
      }
    }
  }
}

// --- forced-schedule runner (replay + minimization) ------------------------

template <typename D>
ScheduleRunReport run_forced(Runtime& rt, Harness<D>& harness,
                             const std::vector<int>& forced,
                             const ExplorerOptions& opt) {
  ScheduleRunReport rep;
  harness.reset();
  rt.begin(harness.bodies());
  std::size_t fi = 0;
  std::uint64_t steps = 0;
  for (;;) {
    int choice = -1;
    while (fi < forced.size()) {
      const int t = forced[fi++];
      if (t >= 0 && t < rt.threads() && rt.parked(t)) {
        choice = t;
        break;
      }
    }
    if (choice < 0) {
      for (int t = 0; t < rt.threads(); ++t) {
        if (rt.parked(t)) {
          choice = t;
          break;
        }
      }
    }
    if (choice < 0) break;  // all finished
    const StepRecord rec = rt.step(choice);
    rep.schedule_executed.push_back(choice);
    const TraceStep ts = trace_step_of(rec);
    if (counts_toward_shapes(ts)) {
      rep.shape_steps[static_cast<std::size_t>(ts.shape)] += 1;
    }
    if (opt.audit_rep) {
      if (harness.two_deleted()) ++rep.two_deleted_states;
      const verify::AuditResult a = harness.audit();
      if (!a.ok) {
        rep.kind = ViolationKind::kRepInvariant;
        rep.detail = a.detail + " after step " +
                     std::to_string(rep.schedule_executed.size() - 1);
        rt.drain();
        return rep;
      }
    }
    if (++steps > opt.max_steps_per_execution) {
      rep.kind = ViolationKind::kStepBudget;
      rep.detail = "execution exceeded " +
                   std::to_string(opt.max_steps_per_execution) + " steps";
      rt.drain();
      return rep;
    }
  }
  if (opt.check_linearizability) {
    const verify::CheckResult cr =
        verify::check_linearizable(harness.history(),
                                   harness.checker_capacity(),
                                   opt.linearizability_state_limit);
    if (cr.verdict == verify::Verdict::kNotLinearizable) {
      rep.kind = ViolationKind::kNotLinearizable;
      rep.detail = cr.message;
    } else if (cr.verdict == verify::Verdict::kLimitExceeded) {
      rep.kind = ViolationKind::kCheckerLimit;
      rep.detail = cr.message;
    }
  }
  return rep;
}

// Greedy context-switch reduction: try to splice a later run of a thread's
// steps onto an earlier run; accept whenever the violation still
// reproduces. Each acceptance strictly decreases the number of context
// switches, so this terminates; `budget` bounds the replays either way.
template <typename D>
std::vector<int> minimize_schedule(Runtime& rt, Harness<D>& harness,
                                   const ExplorerOptions& opt,
                                   std::vector<int> schedule,
                                   ViolationKind kind) {
  std::uint64_t budget = opt.minimize_budget;
  const auto reproduces = [&](const std::vector<int>& cand) {
    if (budget == 0) return false;
    --budget;
    return run_forced(rt, harness, cand, opt).kind == kind;
  };
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;
    // Compress into (tid, length) runs.
    std::vector<std::pair<int, std::size_t>> runs;
    for (const int t : schedule) {
      if (!runs.empty() && runs.back().first == t) {
        ++runs.back().second;
      } else {
        runs.emplace_back(t, 1);
      }
    }
    for (std::size_t i = 0; i + 1 < runs.size() && !improved; ++i) {
      for (std::size_t j = i + 2; j < runs.size(); ++j) {
        if (runs[j].first != runs[i].first) continue;
        std::vector<int> cand;
        for (std::size_t k = 0; k < runs.size(); ++k) {
          if (k == j) continue;
          cand.insert(cand.end(), runs[k].second, runs[k].first);
          if (k == i) cand.insert(cand.end(), runs[j].second, runs[j].first);
        }
        if (reproduces(cand)) {
          schedule = std::move(cand);
          improved = true;
        }
        break;  // only the nearest later run of this tid is a candidate
      }
    }
  }
  return schedule;
}

// --- the explorer ----------------------------------------------------------

template <typename D>
ExploreResult explore_impl(const Scenario& sc, const ExplorerOptions& opt) {
  ExploreResult res;
  const int threads = static_cast<int>(sc.threads.size());
  DCD_ASSERT(threads >= 1);
  ScopedMutation mutation(sc.mutation);
  Harness<D> harness(sc);
  Runtime rt(threads);

  std::vector<Node> nodes;
  std::set<std::string> outcomes;

  const auto finish_violation = [&](ViolationKind kind, std::string detail,
                                    std::vector<int> schedule) {
    res.violation.kind = kind;
    res.violation.detail = std::move(detail);
    res.violation.schedule = std::move(schedule);
    res.violation.minimized_schedule =
        opt.minimize ? minimize_schedule(rt, harness, opt,
                                         res.violation.schedule, kind)
                     : res.violation.schedule;
    res.ok = false;
    res.complete = false;
    res.message = sc.name + ": " +
                  std::string(violation_kind_name(kind)) + " — " +
                  res.violation.detail;
  };

  for (;;) {
    if (res.stats.executions + res.stats.pruned_executions >=
        opt.max_executions) {
      res.ok = true;  // nothing found, but the space was not exhausted
      res.complete = false;
      res.message = sc.name + ": stopped at max_executions";
      break;
    }

    harness.reset();
    rt.begin(harness.bodies());
    std::set<int> sleep;
    std::vector<TraceStep> trace;
    bool pruned = false;
    ViolationKind vkind = ViolationKind::kNone;
    std::string vdetail;
    std::array<bool, dcas::kDcasShapeCount> exec_shapes{};
    std::size_t depth = 0;

    for (;;) {
      std::vector<int> enabled;
      for (int t = 0; t < threads; ++t) {
        if (rt.parked(t)) enabled.push_back(t);
      }
      if (enabled.empty()) break;  // all finished

      int choice = -1;
      if (depth < nodes.size()) {
        choice = nodes[depth].chosen;
        DCD_ASSERT(rt.parked(choice));
      } else {
        for (const int t : enabled) {
          if (sleep.count(t) == 0) {
            choice = t;
            break;
          }
        }
        if (choice < 0) {
          pruned = true;  // every enabled thread is asleep: redundant run
          break;
        }
        Node nd;
        nd.chosen = choice;
        nd.backtrack.insert(choice);
        if (opt.mode == SearchMode::kFull) {
          for (const int t : enabled) nd.backtrack.insert(t);
        }
        nd.done.insert(choice);
        nd.sleep_base = sleep;
        nodes.push_back(std::move(nd));
        ++res.stats.distinct_states;
      }

      // Sleep set entering this state: inherited + already-explored
      // siblings; capture their pending footprints before stepping.
      std::set<int> sleep_here = sleep;
      for (const int q : nodes[depth].done) {
        if (q != choice) sleep_here.insert(q);
      }
      std::map<int, Footprint> sleeping_footprints;
      for (const int q : sleep_here) {
        sleeping_footprints.emplace(q, footprint_of(rt.pending(q)));
      }

      const StepRecord rec = rt.step(choice);
      ++res.stats.transitions;
      const TraceStep ts = trace_step_of(rec);
      trace.push_back(ts);
      if (counts_toward_shapes(ts)) {
        res.stats.shape_steps[static_cast<std::size_t>(ts.shape)] += 1;
        exec_shapes[static_cast<std::size_t>(ts.shape)] = true;
      }

      sleep.clear();
      for (const auto& [q, f] : sleeping_footprints) {
        if (independent(f, ts)) sleep.insert(q);
      }
      ++depth;

      if (opt.audit_rep) {
        if (harness.two_deleted()) ++res.stats.two_deleted_states;
        const verify::AuditResult a = harness.audit();
        if (!a.ok) {
          vkind = ViolationKind::kRepInvariant;
          vdetail = a.detail + " after step " + std::to_string(depth - 1);
          break;
        }
      }
      if (trace.size() > opt.max_steps_per_execution) {
        vkind = ViolationKind::kStepBudget;
        vdetail = "execution exceeded " +
                  std::to_string(opt.max_steps_per_execution) + " steps";
        break;
      }
    }

    if (pruned) {
      ++res.stats.pruned_executions;
      rt.drain();
    } else {
      ++res.stats.executions;
      res.stats.max_depth = std::max<std::uint64_t>(res.stats.max_depth,
                                                    trace.size());
      std::vector<int> schedule;
      schedule.reserve(trace.size());
      for (const TraceStep& t : trace) schedule.push_back(t.tid);

      if (vkind != ViolationKind::kNone) {
        rt.drain();
        finish_violation(vkind, std::move(vdetail), std::move(schedule));
        return res;
      }

      for (std::size_t s = 0; s < dcas::kDcasShapeCount; ++s) {
        if (exec_shapes[s]) res.stats.shape_executions[s] += 1;
      }
      outcomes.insert(harness.outcome_fingerprint());

      if (opt.check_linearizability) {
        const verify::CheckResult cr = verify::check_linearizable(
            harness.history(), harness.checker_capacity(),
            opt.linearizability_state_limit);
        if (cr.verdict == verify::Verdict::kNotLinearizable) {
          finish_violation(ViolationKind::kNotLinearizable, cr.message,
                           std::move(schedule));
          return res;
        }
        if (cr.verdict == verify::Verdict::kLimitExceeded) {
          finish_violation(ViolationKind::kCheckerLimit, cr.message,
                           std::move(schedule));
          return res;
        }
      }

      if (opt.mode == SearchMode::kDpor) {
        dpor_analyze(trace, nodes, threads);
      }
    }

    // Advance to the next unexplored schedule (deepest-first).
    bool advanced = false;
    while (!nodes.empty()) {
      Node& nd = nodes.back();
      int cand = -1;
      for (const int q : nd.backtrack) {
        if (nd.done.count(q) == 0) {
          cand = q;
          break;
        }
      }
      if (cand < 0) {
        nodes.pop_back();
        continue;
      }
      nd.done.insert(cand);
      // A candidate asleep at this node is already covered from an
      // earlier branch point.
      if (nd.sleep_base.count(cand) != 0) continue;
      nd.chosen = cand;
      advanced = true;
      break;
    }
    if (!advanced) {
      res.ok = true;
      res.complete = true;
      res.message = sc.name + ": exhaustive, no violation";
      break;
    }
  }

  res.distinct_outcomes.assign(outcomes.begin(), outcomes.end());
  return res;
}

}  // namespace

ExploreResult explore(const Scenario& scenario,
                      const ExplorerOptions& options) {
  return with_deque_type<McPolicy>(scenario.deque, [&]<typename D>() {
    return explore_impl<D>(scenario, options);
  });
}

ScheduleRunReport run_schedule(const Scenario& scenario,
                               const std::vector<int>& forced,
                               const ExplorerOptions& options) {
  const int threads = static_cast<int>(scenario.threads.size());
  DCD_ASSERT(threads >= 1);
  ScopedMutation mutation(scenario.mutation);
  return with_deque_type<McPolicy>(scenario.deque, [&]<typename D>() {
    Harness<D> harness(scenario);
    Runtime rt(threads);
    return run_forced(rt, harness, forced, options);
  });
}

}  // namespace dcd::mc
