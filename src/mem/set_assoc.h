// One set-associative LRU array: the engine behind the L1/L2/LLC caches, the
// TLB (one set, fully associative) and the pre-execute cache (which the paper
// carves out of the LLC, §3.4.2, so in hardware it is the same structure).
//
// Keys are whole 64-bit values — a line number, a pid-tagged VPN.  The set is
// the key's low bits and the tag the rest, so a set count must be a power of
// two.  Tags and LRU stamps sit in separate arrays (a set's tags share host
// cache lines); a stamp of 0 marks an empty way, which keeps every key,
// 0 and ~0 included, storable, and makes "empty first, else least recent" a
// plain minimum over the set's stamps.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace its::mem {

/// Payload of a SetAssoc that stores keys only.
struct NoPayload {};

/// What SetAssoc::find returns for an absent key.
inline constexpr std::size_t kNoSlot = ~std::size_t{0};

template <class Payload>
class SetAssoc {
 public:
  struct Inserted {
    std::size_t slot;
    std::optional<std::uint64_t> evicted;  ///< The key the insert displaced.
  };

  /// `ways` must be at least 1; `what` names the structure when `sets` is
  /// not a power of two.
  SetAssoc(std::uint64_t sets, unsigned ways, const char* what)
      : ways_(ways),
        set_shift_(static_cast<unsigned>(std::countr_zero(sets))),
        set_mask_(sets - 1) {
    if (!std::has_single_bit(sets)) {
      std::string msg(what);
      msg += ": set count ";
      msg += std::to_string(sets);
      msg += " is not a power of two";
      throw std::invalid_argument(msg);
    }
    tags_.assign(sets * ways, 0);
    stamps_.assign(sets * ways, 0);
    if constexpr (!std::is_empty_v<Payload>)
      payload_.assign(sets * ways, Payload{});
  }

  /// The slot holding `key`, or kNoSlot.
  std::size_t find(std::uint64_t key) const {
    const std::size_t base = set_of(key) * ways_;
    const std::uint64_t tag = key >> set_shift_;
    // Unrolled, the scan issues several compares per taken branch, which is
    // what a 64-way (TLB) set costs most.
#pragma GCC unroll 8
    for (std::size_t i = base; i < base + ways_; ++i)
      if (tags_[i] == tag && stamps_[i] != 0) return i;
    return kNoSlot;
  }

  /// Makes `slot` its set's most recently used way.
  void touch(std::size_t slot) { stamps_[slot] = ++tick_; }

  /// Places an absent `key` as its set's most recently used way, in an
  /// empty way if there is one, else over the least recently used.  The
  /// slot's payload starts value-initialised.
  Inserted insert(std::uint64_t key) {
    const std::uint64_t set = set_of(key);
    std::size_t victim = set * ways_;
#pragma GCC unroll 8
    for (std::size_t i = victim + 1; i < (set + 1) * ways_; ++i)
      if (stamps_[i] < stamps_[victim]) victim = i;
    Inserted r{victim, std::nullopt};
    if (stamps_[victim] != 0)
      r.evicted = (tags_[victim] << set_shift_) | set;
    else
      ++resident_;
    tags_[victim] = key >> set_shift_;
    stamps_[victim] = ++tick_;
    if constexpr (!std::is_empty_v<Payload>) payload_[victim] = Payload{};
    return r;
  }

  void erase(std::size_t slot) {
    stamps_[slot] = 0;
    --resident_;
  }

  /// Empties every way.
  void clear() {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    resident_ = 0;
  }

  Payload& payload(std::size_t slot) { return payload_[slot]; }
  std::uint64_t resident() const { return resident_; }

 private:
  std::uint64_t set_of(std::uint64_t key) const { return key & set_mask_; }

  std::size_t ways_;
  unsigned set_shift_;
  std::uint64_t set_mask_;
  std::uint64_t tick_ = 0;
  std::uint64_t resident_ = 0;
  std::vector<std::uint64_t> tags_;    ///< sets × ways, row-major by set.
  std::vector<std::uint64_t> stamps_;  ///< LRU stamp per way; 0 = empty.
  std::vector<Payload> payload_;       ///< Left empty for NoPayload.
};

}  // namespace its::mem
