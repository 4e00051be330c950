// The array-based bounded deque of §3 (Figures 2, 3, 30, 31).
//
// State: a circular array S[0..N-1] of value words and two index words L
// and R. L is the next slot a pushLeft would fill, R the next slot a
// pushRight would fill; initially L == 0, R == 1 (so (L+1) mod N == R).
// Empty and full states both satisfy (L+1) mod N == R — the paper's key
// observation is that they are distinguished *by cell contents*, confirmed
// atomically with a DCAS over {index word, cell}:
//
//   * popRight reads R then S[R-1]. A null cell suggests empty; the claim
//     is confirmed by DCAS'ing both words against the values read (writing
//     them back unchanged). A non-null cell is popped by DCAS'ing
//     {R := R-1, S[R-1] := null}.
//   * pushRight mirrors this with non-null ⇒ full and
//     {R := R+1, S[R] := v}.
//
// Capacity is exactly N; both ends operate concurrently without
// interference except when they compete for the last element / last free
// slot, in which case one side's DCAS fails (Figure 6).
//
// The two optional fragments (§3's line 7 and lines 17–18) are compile-time
// options; lines 17–18 require the stronger DCAS form (atomic view on
// failure), exactly as the paper notes.
//
// Linearizability and lock-freedom arguments are the paper's Theorem 3.1;
// this repo re-checks them with the linearizability checker (tests) and the
// DPOR model checker in dcd::mc, which explores all four ArrayOptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/deque/value_codec.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"

namespace dcd::deque {

template <typename T, dcas::DcasPolicy Dcas = dcas::DefaultDcas,
          ArrayOptions Opt = ArrayOptions{}>
class ArrayDeque {
  static_assert(dcas::DcasPolicy<Dcas>,
                "ArrayDeque requires a policy providing both Figure 1 DCAS "
                "forms (see dcd/dcas/concepts.hpp)");
  static_assert(std::is_trivially_copyable_v<T>,
                "values are stored as raw 61-bit word payloads");

 public:
  using value_type = T;
  using Codec = ValueCodec<T>;
  static constexpr ArrayOptions kOptions = Opt;

  // make_deque(length_S): capacity() == length_S >= 1.
  explicit ArrayDeque(std::size_t capacity) : n_(capacity) {
    DCD_ASSERT(capacity >= 1);
    s_ = std::make_unique<dcas::Word[]>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      Dcas::store_init(s_[i], dcas::kNull);
    }
    Dcas::store_init(*l_, idx(0));
    Dcas::store_init(*r_, idx(1 % n_));
  }

  ArrayDeque(const ArrayDeque&) = delete;
  ArrayDeque& operator=(const ArrayDeque&) = delete;

  std::size_t capacity() const noexcept { return n_; }

  // Figure 3.
  PushResult push_right(T v) {
    const std::uint64_t vw = Codec::encode(v);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(*r_);             // line 3
      const std::size_t r = index_of(old_r);
      const std::uint64_t new_r = idx(mod_inc(r));             // line 4
      const std::uint64_t old_s = Dcas::load(s_[r]);           // line 5
      if (!dcas::is_null(old_s)) {                             // line 6
        if (!Opt.recheck_index || Dcas::load(*r_) == old_r) {  // line 7
          // DCD_SYNC(empty.confirm)
          // DCD_LP(Fig3:8-10, empty.confirm, inv=array.index_range+array.segment_full+array.ambiguous_boundary, "identity DCAS confirms s[R] non-null while R unchanged: deque observed full")
          if (Dcas::dcas(*r_, s_[r], old_r, old_s, old_r, old_s)) {
            return PushResult::kFull;                          // lines 8-10
          }
        }
      } else {
        if constexpr (Opt.failure_view) {
          std::uint64_t cur_r = old_r, cur_s = old_s;          // line 13
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig3:13-16, dcas.any, inv=array.view_malformed+array.index_range, "R advances and s[R] gains v in one step; failure view decides full vs retry")
          if (Dcas::dcas_view(*r_, s_[r], cur_r, cur_s, new_r, vw)) {
            return PushResult::kOkay;                          // lines 14-16
          }
          if (cur_r == old_r) {                                // lines 17-18
            return PushResult::kFull;
          }
        } else {
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig3:11-12, dcas.any, inv=array.index_range+array.segment_null, "R advances and the null cell s[R] gains v in one step")
          if (Dcas::dcas(*r_, s_[r], old_r, old_s, new_r, vw)) {
            return PushResult::kOkay;
          }
        }
      }
      backoff.pause();
    }
  }

  // Figure 31 (left-hand mirror of Figure 3).
  PushResult push_left(T v) {
    const std::uint64_t vw = Codec::encode(v);
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(*l_);
      const std::size_t l = index_of(old_l);
      const std::uint64_t new_l = idx(mod_dec(l));
      const std::uint64_t old_s = Dcas::load(s_[l]);
      if (!dcas::is_null(old_s)) {
        if (!Opt.recheck_index || Dcas::load(*l_) == old_l) {
          // DCD_SYNC(empty.confirm)
          // DCD_LP(Fig31:8-10, empty.confirm, inv=array.index_range+array.segment_full+array.ambiguous_boundary, "identity DCAS confirms s[L] non-null while L unchanged: deque observed full")
          if (Dcas::dcas(*l_, s_[l], old_l, old_s, old_l, old_s)) {
            return PushResult::kFull;
          }
        }
      } else {
        if constexpr (Opt.failure_view) {
          std::uint64_t cur_l = old_l, cur_s = old_s;
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig31:13-16, dcas.any, inv=array.view_malformed+array.index_range, "L retreats and s[L] gains v in one step; failure view decides full vs retry")
          if (Dcas::dcas_view(*l_, s_[l], cur_l, cur_s, new_l, vw)) {
            return PushResult::kOkay;
          }
          if (cur_l == old_l) {
            return PushResult::kFull;
          }
        } else {
          // DCD_SYNC(dcas.any)
          // DCD_LP(Fig31:11-12, dcas.any, inv=array.index_range+array.segment_null, "L retreats and the null cell s[L] gains v in one step")
          if (Dcas::dcas(*l_, s_[l], old_l, old_s, new_l, vw)) {
            return PushResult::kOkay;
          }
        }
      }
      backoff.pause();
    }
  }

  // Figure 2.
  std::optional<T> pop_right() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_r = Dcas::load(*r_);             // line 3
      const std::size_t new_r_i = mod_dec(index_of(old_r));    // line 4
      const std::uint64_t new_r = idx(new_r_i);
      const std::uint64_t old_s = Dcas::load(s_[new_r_i]);     // line 5
      if (dcas::is_null(old_s)) {                              // line 6
        if (!Opt.recheck_index || Dcas::load(*r_) == old_r) {  // line 7
          // DCD_SYNC(empty.confirm)
          // DCD_LP(Fig2:8-10, empty.confirm, inv=array.index_range+array.segment_null+array.ambiguous_boundary, "identity DCAS confirms s[R-1] null while R unchanged: deque observed empty")
          if (Dcas::dcas(*r_, s_[new_r_i], old_r, old_s, old_r, old_s)) {
            return std::nullopt;                               // lines 8-10
          }
        }
      } else {
        if constexpr (Opt.failure_view) {
          std::uint64_t cur_r = old_r, cur_s = old_s;          // line 13
          // DCD_SYNC(pop.commit)
          // DCD_LP(Fig2:13-16, pop.commit, inv=array.view_malformed+array.index_range+array.segment_null, "R retreats and s[R-1] is nulled in one step; failure view detects a stolen last item")
          if (Dcas::dcas_view(*r_, s_[new_r_i], cur_r, cur_s, new_r,
                              dcas::kNull)) {
            return Codec::decode(cur_s);                       // lines 14-16
          }
          if (cur_r == old_r && dcas::is_null(cur_s)) {        // lines 17-18
            return std::nullopt;  // a competing popLeft stole the last item
          }
        } else {
          // DCD_SYNC(pop.commit)
          // DCD_LP(Fig2:11-12, pop.commit, inv=array.index_range+array.segment_null, "R retreats and s[R-1] is nulled in one step, claiming the value")
          if (Dcas::dcas(*r_, s_[new_r_i], old_r, old_s, new_r,
                         dcas::kNull)) {
            return Codec::decode(old_s);
          }
        }
      }
      backoff.pause();
    }
  }

  // Figure 30 (left-hand mirror of Figure 2).
  std::optional<T> pop_left() {
    util::AdaptiveBackoff::Session backoff;
    for (;;) {
      const std::uint64_t old_l = Dcas::load(*l_);
      const std::size_t new_l_i = mod_inc(index_of(old_l));
      const std::uint64_t new_l = idx(new_l_i);
      const std::uint64_t old_s = Dcas::load(s_[new_l_i]);
      if (dcas::is_null(old_s)) {
        if (!Opt.recheck_index || Dcas::load(*l_) == old_l) {
          // DCD_SYNC(empty.confirm)
          // DCD_LP(Fig30:8-10, empty.confirm, inv=array.index_range+array.segment_null+array.ambiguous_boundary, "identity DCAS confirms s[L+1] null while L unchanged: deque observed empty")
          if (Dcas::dcas(*l_, s_[new_l_i], old_l, old_s, old_l, old_s)) {
            return std::nullopt;
          }
        }
      } else {
        if constexpr (Opt.failure_view) {
          std::uint64_t cur_l = old_l, cur_s = old_s;
          // DCD_SYNC(pop.commit)
          // DCD_LP(Fig30:13-16, pop.commit, inv=array.view_malformed+array.index_range+array.segment_null, "L advances and s[L+1] is nulled in one step; failure view detects a stolen last item")
          if (Dcas::dcas_view(*l_, s_[new_l_i], cur_l, cur_s, new_l,
                              dcas::kNull)) {
            return Codec::decode(cur_s);
          }
          if (cur_l == old_l && dcas::is_null(cur_s)) {
            return std::nullopt;
          }
        } else {
          // DCD_SYNC(pop.commit)
          // DCD_LP(Fig30:11-12, pop.commit, inv=array.index_range+array.segment_null, "L advances and s[L+1] is nulled in one step, claiming the value")
          if (Dcas::dcas(*l_, s_[new_l_i], old_l, old_s, new_l,
                         dcas::kNull)) {
            return Codec::decode(old_s);
          }
        }
      }
      backoff.pause();
    }
  }

  // --- quiescent inspection (tests / examples only; not linearizable) -----

  // Number of non-null cells; exact only while no operation is in flight.
  std::size_t size_unsynchronized() const {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!dcas::is_null(Dcas::load(s_[i]))) ++count;
    }
    return count;
  }

  // Figure 18's RepInv, evaluated on a quiescent deque: either r == l+1
  // (mod n) with the array all-null (empty) or all-non-null (full), or the
  // non-null cells form exactly the cyclic segment (l, r) exclusive.
  bool check_rep_inv_unsynchronized() const {
    const std::size_t l = left_index_unsynchronized();
    const std::size_t r = right_index_unsynchronized();
    if (l >= n_ || r >= n_) return false;
    if (r == (l + 1) % n_) {
      const std::size_t nn = n_ - size_unsynchronized();
      return nn == 0 || nn == n_;
    }
    for (std::size_t i = (l + 1) % n_; i != r; i = (i + 1) % n_) {
      if (cell_null_unsynchronized(i)) return false;
    }
    for (std::size_t i = r;; i = (i + 1) % n_) {
      if (!cell_null_unsynchronized(i)) return false;
      if (i == l) break;
    }
    return true;
  }

  std::size_t left_index_unsynchronized() const {
    return index_of(Dcas::load(*l_));
  }
  std::size_t right_index_unsynchronized() const {
    return index_of(Dcas::load(*r_));
  }
  bool cell_null_unsynchronized(std::size_t i) const {
    return dcas::is_null(Dcas::load(s_[i]));
  }

  // Structural snapshot for verify::RepAuditor. Same quiescence caveat as
  // the checks above; the model checker additionally calls this at explored
  // states, where it is exact because every model thread is parked *before*
  // its next access (no step is half-done).
  ArrayRepView rep_view_unsynchronized() const {
    ArrayRepView view;
    view.n = n_;
    view.l = left_index_unsynchronized();
    view.r = right_index_unsynchronized();
    view.cell_null.resize(n_);
    view.cells.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      view.cells[i] = Dcas::load(s_[i]);
      view.cell_null[i] = dcas::is_null(view.cells[i]);
    }
    return view;
  }

 private:
  static std::uint64_t idx(std::size_t i) noexcept {
    return dcas::encode_payload(static_cast<std::uint64_t>(i));
  }
  static std::size_t index_of(std::uint64_t word) noexcept {
    return static_cast<std::size_t>(dcas::decode_payload(word));
  }
  std::size_t mod_inc(std::size_t i) const noexcept {
    return (i + 1) % n_;
  }
  std::size_t mod_dec(std::size_t i) const noexcept {
    return (i + n_ - 1) % n_;
  }

  std::size_t n_;
  // L and R are hot independent words; keep them on separate lines so the
  // paper's "non-interfering ends" property survives the memory system.
  util::CacheAligned<dcas::Word> l_;
  util::CacheAligned<dcas::Word> r_;
  std::unique_ptr<dcas::Word[]> s_;
};

}  // namespace dcd::deque
