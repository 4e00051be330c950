#include "dcd/mc/mutation.hpp"

#include <atomic>
#include <cstring>

namespace dcd::mc {

namespace {
std::atomic<Mutation> g_mutation{Mutation::kNone};
}  // namespace

const char* mutation_name(Mutation m) noexcept {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kDropDeletedBit: return "drop-deleted-bit";
    case Mutation::kPopKeepsValue: return "pop-keeps-value";
    case Mutation::kPushSkipsDeletedCheck: return "push-skips-deleted-check";
    case Mutation::kTwoNullSkipsAdjacency: return "two-null-skips-adjacency";
  }
  return "?";
}

bool mutation_from_name(const char* name, Mutation& out) noexcept {
  for (const Mutation m : {Mutation::kNone, Mutation::kDropDeletedBit,
                           Mutation::kPopKeepsValue,
                           Mutation::kPushSkipsDeletedCheck,
                           Mutation::kTwoNullSkipsAdjacency}) {
    if (std::strcmp(name, mutation_name(m)) == 0) {
      out = m;
      return true;
    }
  }
  return false;
}

Mutation active_mutation() noexcept {
  return g_mutation.load(std::memory_order_acquire);
}

void set_active_mutation(Mutation m) noexcept {
  g_mutation.store(m, std::memory_order_release);
}

}  // namespace dcd::mc
