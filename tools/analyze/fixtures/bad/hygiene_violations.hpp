// Seeded violations of the hygiene rules, each in a shape the rest of its
// pass accepts: an implicit-order load that the contract row would allow
// as seq_cst (pass 1), a raw delete in a pool-owned path (pass 5), a
// reserved-bit test on a value no codec token taints (pass 8), and a
// sanitizer opt-out with no comment (annotation roster).
#pragma once

struct HygieneBad {
  std::atomic<int> flag_;
  // DCD_HB_EXEMPT(fixture: no edge rides on this read)
  int peek() { return flag_.load(); }
  void drop(Node* n) { delete n; }
  bool weird(std::uint64_t w) { return (w & kDeletedBit) != 0; }
};

DCD_NO_SANITIZE_THREAD
void naked() {}
