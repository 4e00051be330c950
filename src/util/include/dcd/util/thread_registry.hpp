// Process-wide small-integer thread identities.
//
// The EBR reclamation domain and the MCAS descriptors need a dense
// per-thread slot index. A thread claims a slot the first time it calls
// ThreadRegistry::self() and releases it automatically at thread exit, so
// short-lived test threads recycle slots instead of exhausting them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dcd/util/align.hpp"

namespace dcd::util {

class ThreadRegistry {
 public:
  // Upper bound on concurrently live registered threads. Slots recycle, so
  // the total number of threads over a process lifetime is unbounded.
  static constexpr std::size_t kMaxThreads = 128;

  // Dense id of the calling thread in [0, kMaxThreads). Claims a slot on
  // first use; aborts if more than kMaxThreads threads are live at once.
  static std::size_t self();

  // Number of slots that have ever been claimed and are currently live.
  // Used by EBR's epoch scan.
  static std::size_t high_watermark();

  // True if the slot is currently owned by a live thread.
  static bool slot_live(std::size_t slot);

 private:
  struct Slot {
    std::atomic<bool> taken{false};
  };

  struct Lease;  // RAII releaser, defined in the .cpp.

  static CacheAligned<Slot> slots_[kMaxThreads];
  static std::atomic<std::size_t> watermark_;
};

}  // namespace dcd::util
