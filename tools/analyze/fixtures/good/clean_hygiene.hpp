// Clean shapes for the hygiene rules: an explicit order (even seq_cst), a
// deleted special member and a preprocessor `new`, bits tested through a
// codec helper, and a sanitizer opt-out that says why.
#pragma once

#include <new>

struct HygieneClean {
  HygieneClean(const HygieneClean&) = delete;
  std::atomic<int> flag_;
  // DCD_HB_EXEMPT(fixture: no edge rides on this read)
  int peek() { return flag_.load(std::memory_order_seq_cst); }
  bool deleted(std::uint64_t w) { return is_deleted(w); }
};

// Benign: a statistic read racily on purpose, never used for control.
DCD_NO_SANITIZE_THREAD
void justified() {}
