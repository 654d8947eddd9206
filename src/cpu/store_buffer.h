// Store buffer with forwarding, used during pre-execution.
//
// Pre-execute stores park their (validity-tagged) results here; when an
// entry retires (FIFO overflow or episode end) it moves into the
// pre-execute cache so later pre-execute loads "dependent on these retired
// store instructions can be verified by checking the pre-execute cache"
// (§3.4.2).  Entries are keyed in the same (pid, vaddr) key space as the
// pre-execute cache.
//
// A fixed ring of `capacity` slots, allocated once: a push, a lookup and a
// drain allocate nothing.  Each field has its own array, so the
// youngest-first overlap scan reads addresses and sizes only.
#pragma once

#include "util/types.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace its::cpu {

struct SbEntry {
  its::VirtAddr addr = 0;  ///< Composite (pid, vaddr) key of the first byte.
  std::uint16_t size = 0;
  bool invalid = false;  ///< Data written was bogus (INV source / fault).
};

struct SbHit {
  bool found = false;
  bool invalid = false;   ///< Forwarded data was bogus.
  bool complete = false;  ///< The youngest overlapping store covers the whole range.
};

class StoreBuffer {
 public:
  /// Throws std::invalid_argument naming `capacity` if it is 0.
  explicit StoreBuffer(std::size_t capacity = 56);

  /// Appends a store; if the buffer is full the oldest entry retires and is
  /// returned (the caller forwards it to the pre-execute cache).
  std::optional<SbEntry> push(const SbEntry& e);

  /// Youngest-entry-wins forwarding lookup over [addr, addr+size).
  SbHit lookup(its::VirtAddr addr, std::uint16_t size) const;

  /// Retires every entry (episode end), oldest first, through
  /// `retire(const SbEntry&)`; the buffer becomes empty.
  template <class F>
  void drain(F&& retire) {
    for (std::size_t i = 0; i < size_; ++i) retire(entry(slot(i)));
    clear();
  }

  void clear() { size_ = 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return addrs_.size(); }
  bool empty() const { return size_ == 0; }

 private:
  /// The slot of the i-th oldest entry.
  std::size_t slot(std::size_t i) const {
    i += head_;
    return i >= capacity() ? i - capacity() : i;
  }
  SbEntry entry(std::size_t s) const {
    return {addrs_[s], sizes_[s], invalid_[s] != 0};
  }

  std::vector<its::VirtAddr> addrs_;  ///< Per slot; sized once.
  std::vector<std::uint16_t> sizes_;
  std::vector<std::uint8_t> invalid_;  ///< Not vector<bool>: plain bytes.
  std::size_t head_ = 0;  ///< Slot of the oldest entry.
  std::size_t size_ = 0;
};

}  // namespace its::cpu
