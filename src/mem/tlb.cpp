#include "mem/tlb.h"

#include "mem/set_assoc.h"
#include "util/types.h"

#include <stdexcept>

namespace its::mem {

namespace {
unsigned checked(unsigned entries) {
  if (entries == 0 || entries > Tlb::kMaxEntries)
    throw std::invalid_argument("tlb_entries must be in [1, 4096]");
  return entries;
}
}  // namespace

Tlb::Tlb(unsigned entries) : entries_(1, checked(entries), "Tlb") {}

bool Tlb::access(its::Vpn vpn) {
  if (lookup(vpn)) return true;
  entries_.insert(vpn);
  return false;
}

bool Tlb::lookup(its::Vpn vpn) {
  const std::size_t slot = entries_.find(vpn);
  if (slot == kNoSlot) {
    ++stats_.misses;
    return false;
  }
  entries_.touch(slot);
  ++stats_.hits;
  return true;
}

void Tlb::insert(its::Vpn vpn) {
  if (const std::size_t slot = entries_.find(vpn); slot != kNoSlot)
    entries_.touch(slot);
  else
    entries_.insert(vpn);
}

void Tlb::invalidate(its::Vpn vpn) {
  if (const std::size_t slot = entries_.find(vpn); slot != kNoSlot)
    entries_.erase(slot);
}

void Tlb::flush() {
  entries_.clear();
  ++stats_.flushes;
}

}  // namespace its::mem
