#include "dcd/verify/linearizability.hpp"

#include <algorithm>
#include <unordered_set>

#include "dcd/util/assert.hpp"

namespace dcd::verify {

const char* op_name(OpType t) {
  switch (t) {
    case OpType::kPushRight: return "pushRight";
    case OpType::kPushLeft: return "pushLeft";
    case OpType::kPopRight: return "popRight";
    case OpType::kPopLeft: return "popLeft";
  }
  return "?";
}

std::string Operation::describe() const {
  std::string s = op_name(type);
  if (type == OpType::kPushRight || type == OpType::kPushLeft) {
    s += '(';
    s += std::to_string(arg);
    s += ") -> ";
    s += push_ok ? "okay" : "full";
  } else {
    s += "() -> ";
    s += pop_has_value ? std::to_string(pop_value) : "empty";
  }
  s += " [";
  s += std::to_string(invoke_seq);
  s += ',';
  s += std::to_string(response_seq);
  s += ']';
  return s;
}

std::string History::describe() const {
  std::string s;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    s += "  #";
    s += std::to_string(i);
    s += ' ';
    s += ops[i].describe();
    s += '\n';
  }
  return s;
}

bool apply_if_consistent(SpecDeque& spec, const Operation& op) {
  switch (op.type) {
    case OpType::kPushRight:
    case OpType::kPushLeft: {
      const bool would_be_full = spec.full();
      if (op.push_ok == would_be_full) return false;
      if (op.push_ok) {
        (op.type == OpType::kPushRight) ? spec.push_right(op.arg)
                                        : spec.push_left(op.arg);
      }
      return true;
    }
    case OpType::kPopRight:
    case OpType::kPopLeft: {
      if (!op.pop_has_value) {
        return spec.empty();  // "empty" only legal on an empty deque
      }
      if (spec.empty()) return false;
      const std::uint64_t expect = (op.type == OpType::kPopRight)
                                       ? spec.items().back()
                                       : spec.items().front();
      if (expect != op.pop_value) return false;
      (op.type == OpType::kPopRight) ? spec.pop_right() : spec.pop_left();
      return true;
    }
  }
  return false;
}

namespace {

// DFS state key: linearized-op bitmask bytes + spec fingerprint. Exact
// (full key stored), so memo hits can never mask a real counterexample.
std::string make_key(const std::vector<std::uint64_t>& mask,
                     const SpecDeque& spec) {
  std::string key;
  key.reserve(mask.size() * 8 + 16);
  for (const std::uint64_t w : mask) {
    for (int b = 0; b < 8; ++b) {
      key.push_back(static_cast<char>((w >> (8 * b)) & 0xff));
    }
  }
  key.push_back('|');
  key += spec.fingerprint();
  return key;
}

class Checker {
 public:
  Checker(const History& h, std::size_t capacity, std::uint64_t limit)
      : h_(h), limit_(limit), spec_(capacity) {
    mask_.resize((h.ops.size() + 63) / 64, 0);
  }

  CheckResult run() {
    CheckResult result;
    if (!dfs()) {
      result.verdict = hit_limit_ ? Verdict::kLimitExceeded
                                  : Verdict::kNotLinearizable;
      if (result.verdict == Verdict::kNotLinearizable) {
        result.message = "no legal linearization exists; history:\n" +
                         h_.describe();
      } else {
        // path_ holds the prefix under extension when the budget ran out.
        // Surface it as the clearly-partial field and leave `witness`
        // empty, so no caller mistakes an abandoned prefix for a witness.
        result.partial_witness = path_;
        result.message =
            "state limit exceeded (partial linearization prefix of " +
            std::to_string(path_.size()) + "/" +
            std::to_string(h_.ops.size()) + " ops in partial_witness)";
      }
    } else {
      result.verdict = Verdict::kLinearizable;
      result.witness = path_;
    }
    result.states_explored = states_;
    return result;
  }

 private:
  bool linearized(std::size_t i) const {
    return (mask_[i / 64] >> (i % 64)) & 1;
  }
  void set_linearized(std::size_t i, bool on) {
    if (on) {
      mask_[i / 64] |= (1ull << (i % 64));
    } else {
      mask_[i / 64] &= ~(1ull << (i % 64));
    }
  }

  bool dfs() {
    if (path_.size() == h_.ops.size()) return true;
    if (++states_ > limit_) {
      hit_limit_ = true;
      return false;
    }
    {
      const std::string key = make_key(mask_, spec_);
      if (!memo_.insert(key).second) return false;
    }

    // Find the two smallest response tickets among unlinearized ops so the
    // eligibility test ("no unlinearized op precedes me") is O(1) per op.
    const std::uint64_t kInf = ~std::uint64_t{0};
    std::uint64_t min1 = kInf, min2 = kInf;
    std::size_t min1_idx = h_.ops.size();
    for (std::size_t i = 0; i < h_.ops.size(); ++i) {
      if (linearized(i)) continue;
      const std::uint64_t r = h_.ops[i].response_seq;
      if (r < min1) {
        min2 = min1;
        min1 = r;
        min1_idx = i;
      } else if (r < min2) {
        min2 = r;
      }
    }

    for (std::size_t i = 0; i < h_.ops.size(); ++i) {
      if (linearized(i)) continue;
      const std::uint64_t min_other = (i == min1_idx) ? min2 : min1;
      if (h_.ops[i].invoke_seq > min_other) continue;  // predecessor pending
      SpecDeque saved = spec_;
      if (!apply_if_consistent(spec_, h_.ops[i])) {
        spec_ = std::move(saved);
        continue;
      }
      set_linearized(i, true);
      path_.push_back(i);
      if (dfs()) return true;
      if (hit_limit_) return false;
      path_.pop_back();
      set_linearized(i, false);
      spec_ = std::move(saved);
    }
    return false;
  }

  const History& h_;
  const std::uint64_t limit_;
  SpecDeque spec_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::size_t> path_;
  std::unordered_set<std::string> memo_;
  std::uint64_t states_ = 0;
  bool hit_limit_ = false;
};

}  // namespace

CheckResult check_linearizable(const History& history, std::size_t capacity,
                               std::uint64_t state_limit) {
  Checker checker(history, capacity, state_limit);
  return checker.run();
}

}  // namespace dcd::verify
