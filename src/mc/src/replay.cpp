#include "dcd/mc/replay.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "deques.hpp"

#include "dcd/dcas/chaos.hpp"
#include "dcd/dcas/global_lock.hpp"
#include "dcd/mc/mutation.hpp"
#include "dcd/verify/linearizability.hpp"

namespace dcd::mc {

namespace {

// Shape whose successful writes a sync-point name counts ("dcas.any" is
// handled by the caller as the sum over all shapes).
bool shape_of_point(const std::string& name, dcas::DcasShape& out) {
  for (std::size_t i = 1; i < dcas::kDcasShapeCount; ++i) {
    const auto s = static_cast<dcas::DcasShape>(i);
    if (name == dcas::shape_name(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

bool countable_point(const std::string& name) {
  dcas::DcasShape s{};
  return name == dcas::sync_point::kDcasAny || shape_of_point(name, s);
}

std::uint64_t count_for_point(
    const std::string& point,
    const std::array<std::uint64_t, dcas::kDcasShapeCount>& shape_steps) {
  if (point == dcas::sync_point::kDcasAny) {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : shape_steps) sum += c;
    return sum;
  }
  dcas::DcasShape s{};
  if (!shape_of_point(point, s)) return 0;
  return shape_steps[static_cast<std::size_t>(s)];
}

bool parse_kind(const std::string& word, ViolationKind& out) {
  for (const ViolationKind k :
       {ViolationKind::kNone, ViolationKind::kRepInvariant,
        ViolationKind::kNotLinearizable, ViolationKind::kCheckerLimit,
        ViolationKind::kStepBudget}) {
    if (word == violation_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string w;
  while (is >> w) out.push_back(w);
  return out;
}

bool parse_ops(const std::string& rest, std::vector<ScenarioOp>& out,
               std::string& error) {
  for (const std::string& tok : split_ws(rest)) {
    ScenarioOp op;
    if (!parse_op(tok, op)) {
      error = "bad op '" + tok + "'";
      return false;
    }
    out.push_back(op);
  }
  return true;
}

}  // namespace

bool parse_replay(const std::string& text, ReplayFile& out,
                  std::string& error) {
  out = ReplayFile{};
  out.scenario.setup.clear();
  out.scenario.threads.clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  const auto fail = [&](const std::string& why) {
    error = "line " + std::to_string(lineno) + ": " + why;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t colon = line.find(':');
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (colon == std::string::npos) return fail("expected 'key: value'");
    const std::string key = line.substr(0, colon);
    const std::string rest = line.substr(colon + 1);
    const std::vector<std::string> words = split_ws(rest);
    if (key == "name") {
      out.scenario.name = words.empty() ? "" : words[0];
    } else if (key == "deque") {
      if (words.size() != 1 ||
          !deque_kind_from_name(words[0].c_str(), out.scenario.deque)) {
        return fail("unknown deque kind '" +
                    (words.empty() ? "" : words[0]) + "'");
      }
    } else if (key == "capacity") {
      if (words.size() != 1) return fail("capacity takes one integer");
      out.scenario.capacity =
          static_cast<std::size_t>(std::stoull(words[0]));
      if (out.scenario.capacity == 0) return fail("capacity must be >= 1");
    } else if (key == "mutation") {
      if (words.size() != 1 ||
          !mutation_from_name(words[0].c_str(), out.scenario.mutation)) {
        return fail("unknown mutation '" +
                    (words.empty() ? "" : words[0]) + "'");
      }
    } else if (key == "setup") {
      if (!parse_ops(rest, out.scenario.setup, error)) return fail(error);
    } else if (key == "thread") {
      std::vector<ScenarioOp> ops;
      if (!parse_ops(rest, ops, error)) return fail(error);
      if (ops.empty()) return fail("thread line needs at least one op");
      out.scenario.threads.push_back(std::move(ops));
    } else if (key == "expect") {
      if (words.size() != 1) return fail("expect takes one word");
      out.has_expect = true;
      if (words[0] == "any") {
        out.expect_any = true;
      } else if (!parse_kind(words[0], out.expect_kind)) {
        return fail("unknown expect verdict '" + words[0] + "'");
      }
    } else if (key == "expect-shape") {
      // "<point> >= N"
      if (words.size() != 3 || words[1] != ">=") {
        return fail("expect-shape wants '<point> >= N'");
      }
      if (!countable_point(words[0])) {
        return fail("unknown DCAS sync point '" + words[0] + "'");
      }
      out.shape_expects.push_back({words[0], std::stoull(words[2])});
    } else if (key == "expect-two-deleted") {
      if (words.size() != 2 || words[0] != ">=") {
        return fail("expect-two-deleted wants '>= N'");
      }
      out.min_two_deleted = std::stoull(words[1]);
    } else if (key == "schedule") {
      for (const std::string& w : words) {
        out.schedule.push_back(std::stoi(w));
      }
    } else if (key == "chaos-park") {
      if (words.size() != 2) return fail("chaos-park wants '<point> <nth>'");
      if (!dcas::is_sync_point(words[0].c_str())) {
        return fail("unknown sync point '" + words[0] + "'");
      }
      out.chaos_parks.push_back({words[0], std::stoull(words[1])});
    } else {
      return fail("unknown directive '" + key + "'");
    }
  }
  if (out.scenario.threads.empty()) {
    error = "no 'thread:' lines";
    return false;
  }
  for (const int t : out.schedule) {
    if (t < 0 || t >= static_cast<int>(out.scenario.threads.size())) {
      error = "schedule names thread " + std::to_string(t) +
              " but only " + std::to_string(out.scenario.threads.size()) +
              " exist";
      return false;
    }
  }
  return true;
}

bool load_replay_file(const std::string& path, ReplayFile& out,
                      std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_replay(buf.str(), out, error);
}

std::string serialize_replay(const ReplayFile& file) {
  std::ostringstream out;
  if (!file.scenario.name.empty()) out << "name: " << file.scenario.name << "\n";
  out << "deque: " << deque_kind_name(file.scenario.deque) << "\n";
  out << "capacity: " << file.scenario.capacity << "\n";
  out << "mutation: " << mutation_name(file.scenario.mutation) << "\n";
  if (!file.scenario.setup.empty()) {
    out << "setup:";
    for (const ScenarioOp& op : file.scenario.setup) {
      out << " " << format_op(op);
    }
    out << "\n";
  }
  for (const auto& ops : file.scenario.threads) {
    out << "thread:";
    for (const ScenarioOp& op : ops) out << " " << format_op(op);
    out << "\n";
  }
  if (file.has_expect) {
    out << "expect: "
        << (file.expect_any ? "any" : violation_kind_name(file.expect_kind))
        << "\n";
  }
  for (const ReplayFile::ShapeExpect& e : file.shape_expects) {
    out << "expect-shape: " << e.point << " >= " << e.min << "\n";
  }
  if (file.min_two_deleted > 0) {
    out << "expect-two-deleted: >= " << file.min_two_deleted << "\n";
  }
  if (!file.schedule.empty()) {
    out << "schedule:";
    for (const int t : file.schedule) out << " " << t;
    out << "\n";
  }
  for (const ReplayFile::ChaosPark& p : file.chaos_parks) {
    out << "chaos-park: " << p.point << " " << p.nth << "\n";
  }
  return out.str();
}

ReplayFile make_counterexample(const Scenario& scenario,
                               const Violation& violation) {
  ReplayFile file;
  file.scenario = scenario;
  file.schedule = violation.minimized_schedule.empty()
                      ? violation.schedule
                      : violation.minimized_schedule;
  file.has_expect = true;
  file.expect_kind = violation.kind;
  return file;
}

namespace {

// `any_kind`: the chaos executor audits only the final state (the model
// runtime audits every step), so a mid-run rep corruption legitimately
// surfaces there under a different verdict — e.g. the kPopKeepsValue
// double-pop shows up as a non-linearizable history once the corrupted
// cell is popped again. Chaos replays therefore accept any violation when
// the file expects a specific one.
ReplayOutcome check_expectations(
    const ReplayFile& file, ViolationKind kind, const std::string& detail,
    const std::array<std::uint64_t, dcas::kDcasShapeCount>& shape_steps,
    std::uint64_t two_deleted, bool any_kind) {
  ReplayOutcome out;
  out.kind = kind;
  if (file.has_expect) {
    const bool want_any =
        file.expect_any ||
        (any_kind && file.expect_kind != ViolationKind::kNone);
    if (want_any) {
      if (kind == ViolationKind::kNone) {
        out.message = "expected a violation, run was clean";
        return out;
      }
    } else if (kind != file.expect_kind) {
      out.message = std::string("expected ") +
                    violation_kind_name(file.expect_kind) + ", got " +
                    violation_kind_name(kind) +
                    (detail.empty() ? "" : " (" + detail + ")");
      return out;
    }
  }
  for (const ReplayFile::ShapeExpect& e : file.shape_expects) {
    const std::uint64_t got = count_for_point(e.point, shape_steps);
    if (got < e.min) {
      out.message = "expect-shape " + e.point + " >= " +
                    std::to_string(e.min) + " but saw " +
                    std::to_string(got);
      return out;
    }
  }
  if (two_deleted < file.min_two_deleted) {
    out.message = "expect-two-deleted >= " +
                  std::to_string(file.min_two_deleted) + " but saw " +
                  std::to_string(two_deleted);
    return out;
  }
  out.ok = true;
  out.message = std::string("replay ok: ") + violation_kind_name(kind) +
                (detail.empty() ? "" : " — " + detail);
  return out;
}

}  // namespace

ReplayOutcome run_replay(const ReplayFile& file,
                         const ExplorerOptions& options) {
  const ScheduleRunReport rep =
      run_schedule(file.scenario, file.schedule, options);
  ReplayOutcome out = check_expectations(file, rep.kind, rep.detail,
                                         rep.shape_steps,
                                         rep.two_deleted_states,
                                         /*any_kind=*/false);
  out.report = rep;
  return out;
}

namespace {

// The chaos reproduction stack: same mutation layer as the model checker,
// but faults come from the preemptive ChaosController instead of the
// cooperative scheduler.
using ChaosPolicy = dcas::ChaosDcas<MutantDcasT<dcas::GlobalLockDcas>>;

template <typename D>
ReplayOutcome run_chaos_impl(const ReplayFile& file,
                             std::uint64_t park_timeout_ms) {
  const Scenario& sc = file.scenario;
  ScopedMutation mutation(sc.mutation);

  dcas::ChaosSchedule schedule;  // parks only: no random delays/failures
  schedule.seed = dcas::chaos_seed_from_env(0);
  dcas::ChaosController controller(schedule);
  std::vector<std::size_t> rules;
  rules.reserve(file.chaos_parks.size());
  for (const ReplayFile::ChaosPark& p : file.chaos_parks) {
    rules.push_back(controller.arm_park(p.point.c_str(), p.nth));
  }
  const auto parked_now = [&] {
    std::size_t n = 0;
    for (const std::size_t r : rules) n += controller.parked(r) ? 1 : 0;
    return n;
  };

  D deque(sc.capacity);
  verify::History history;
  for (const ScenarioOp& op : sc.setup) history.append(run_op(deque, op));

  // Staged start: with parks armed, each thread runs alone until it parks
  // or finishes before the next one starts. The parked windows then open
  // in file order and every later thread runs inside them, so the staging
  // does not race thread start-up.
  const std::size_t n = sc.threads.size();
  std::vector<std::vector<verify::Operation>> thread_ops(n);
  const auto finished = std::make_unique<std::atomic<bool>[]>(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  std::string park_note;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t parked_before = parked_now();
    threads.emplace_back([&, t] {
      for (const ScenarioOp& op : sc.threads[t]) {
        thread_ops[t].push_back(run_op(deque, op));
      }
      finished[t].store(true, std::memory_order_release);
    });
    if (rules.empty()) continue;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(park_timeout_ms);
    while (!finished[t].load(std::memory_order_acquire) &&
           parked_now() == parked_before) {
      if (std::chrono::steady_clock::now() > deadline) {
        park_note = "thread " + std::to_string(t) +
                    " neither parked nor finished";
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!controller.wait_parked(rules[i], park_timeout_ms)) {
      park_note += std::string(park_note.empty() ? "" : "; ") +
                   "chaos-park " + file.chaos_parks[i].point +
                   " never fired";
    }
  }
  // Two-deleted probe while the poppers are held in the staged window.
  const std::uint64_t two_deleted = DequeTraits<D>::two_deleted(deque) ? 1 : 0;
  controller.release_all();
  for (std::thread& th : threads) th.join();

  for (const auto& ops : thread_ops) {
    for (const verify::Operation& op : ops) history.append(op);
  }

  ViolationKind kind = ViolationKind::kNone;
  std::string detail;
  const verify::AuditResult audit = DequeTraits<D>::audit(deque);
  if (!audit.ok) {
    kind = ViolationKind::kRepInvariant;
    detail = audit.detail;
  } else {
    const verify::CheckResult cr = verify::check_linearizable(
        history, DequeTraits<D>::checker_capacity(sc.capacity));
    if (cr.verdict == verify::Verdict::kNotLinearizable) {
      kind = ViolationKind::kNotLinearizable;
      detail = cr.message;
    } else if (cr.verdict == verify::Verdict::kLimitExceeded) {
      kind = ViolationKind::kCheckerLimit;
      detail = cr.message;
    }
  }

  std::array<std::uint64_t, dcas::kDcasShapeCount> successes{};
  for (std::size_t s = 0; s < dcas::kDcasShapeCount; ++s) {
    successes[s] = controller.successes(static_cast<dcas::DcasShape>(s));
  }
  ReplayOutcome out = check_expectations(file, kind, detail, successes,
                                         two_deleted, /*any_kind=*/true);
  if (!park_note.empty()) {
    out.message += " [" + park_note + "]";
  }
  return out;
}

}  // namespace

ReplayOutcome run_replay_chaos(const ReplayFile& file,
                               std::uint64_t park_timeout_ms) {
  return with_deque_type<ChaosPolicy>(file.scenario.deque, [&]<typename D>() {
    return run_chaos_impl<D>(file, park_timeout_ms);
  });
}

}  // namespace dcd::mc
