#include "cpu/store_buffer.h"

#include "util/types.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace its::cpu {

namespace {
std::size_t checked(std::size_t capacity) {
  if (capacity == 0)
    throw std::invalid_argument("store buffer capacity must be >= 1");
  return capacity;
}
}  // namespace

StoreBuffer::StoreBuffer(std::size_t capacity)
    : addrs_(checked(capacity)), sizes_(capacity), invalid_(capacity) {}

std::optional<SbEntry> StoreBuffer::push(const SbEntry& e) {
  std::optional<SbEntry> retired;
  // The slot past the youngest entry, which is the oldest one when full:
  // that entry retires and its slot takes the new one.
  const std::size_t s = slot(size_);
  if (size_ == capacity()) {
    retired = entry(s);
    head_ = slot(1);
  } else {
    ++size_;
  }
  addrs_[s] = e.addr;
  sizes_[s] = e.size;
  invalid_[s] = e.invalid;
  return retired;
}

SbHit StoreBuffer::lookup(its::VirtAddr addr, std::uint16_t size) const {
  // Scan youngest → oldest so the most recent overlapping store forwards.
  for (std::size_t i = size_; i-- > 0;) {
    const std::size_t s = slot(i);
    const its::VirtAddr a = addrs_[s];
    if (a < addr + size && addr < a + sizes_[s]) {
      const bool covers = a <= addr && addr + size <= a + sizes_[s];
      return {true, invalid_[s] != 0, covers};
    }
  }
  return {};
}

}  // namespace its::cpu
