// One set-associative LRU array: the engine behind the L1/L2/LLC caches, the
// TLB (one set, fully associative) and the pre-execute cache (which the paper
// carves out of the LLC, §3.4.2, so in hardware it is the same structure).
//
// Keys are whole 64-bit values — a line number, a pid-tagged VPN.  The set is
// the key's low bits and the tag the rest, so a set count must be a power of
// two.  Every key, 0 and ~0 included, is storable.
//
// Each way carries a 1-byte fingerprint of its tag, 0 while the way is
// empty.  A set's fingerprints form one row, zero-padded to a multiple of 8
// bytes, so a lookup compares eight ways per 64-bit word and reads the full
// tag only where a fingerprint byte matches: one host cache line of
// fingerprints covers a 64-way set.
//
// Recency is a circular doubly-linked list per set, most recent way at the
// set's head, least recent just before it.  A hit moves its way to the head;
// an erase moves its way to the tail, so the empty ways are always a suffix
// of the list and "an empty way if there is one, else the least recent" is
// the tail — victim choice is O(1) and inserting over the tail only rotates
// the head.
//
// A slot is `set << way_shift | way`, each set spanning bit_ceil(ways) slots,
// so touch and erase find a slot's set with a shift; a way count that is not
// a power of two leaves the top slots of each span unused.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

  /// Ways are linked by 16-bit indices.
  static constexpr unsigned kMaxWays = 65535;

  /// Throws std::invalid_argument naming `what` unless `sets` is a power of
  /// two and 1 <= ways <= kMaxWays; nothing is allocated before the check.
  SetAssoc(std::uint64_t sets, unsigned ways, const char* what) {
    if (!std::has_single_bit(sets))
      reject(what, "set count ", sets, " is not a power of two");
    if (ways == 0 || ways > kMaxWays)
      reject(what, "way count ", ways, " is not in [1, 65535]");
    // A set's slots span a power of two, so a slot's set is a shift away.
    way_shift_ = static_cast<unsigned>(std::bit_width(ways - 1u));
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets));
    set_mask_ = sets - 1;
    fp_row_ = std::max<std::size_t>(8, std::size_t{1} << way_shift_);
    tags_.assign(sets << way_shift_, 0);
    fps_.assign(sets * fp_row_, 0);
    links_.assign(sets << way_shift_, Link{});
    heads_.assign(sets, 0);
    for (std::uint64_t s = 0; s < sets; ++s)
      for (unsigned w = 0; w < ways; ++w)
        links_[(s << way_shift_) + w] = {
            static_cast<std::uint16_t>(w == 0 ? ways - 1 : w - 1),
            static_cast<std::uint16_t>(w + 1 == ways ? 0 : w + 1)};
    if constexpr (!std::is_empty_v<Payload>)
      payload_.assign(sets << way_shift_, Payload{});
  }

  /// The slot holding `key`, or kNoSlot.
  std::size_t find(std::uint64_t key) const {
    static_assert(std::endian::native == std::endian::little,
                  "a fingerprint byte's way is its countr_zero / 8");
    constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
    const std::uint64_t set = set_of(key);
    const std::uint64_t tag = key >> set_shift_;
    const std::uint8_t* row = fps_.data() + set * fp_row_;
    // fingerprint() <= 0xFF, so the broadcast product is at most ~0: it
    // cannot wrap.
    const std::uint64_t want = fingerprint(tag) * 0x0101010101010101ull;
    for (std::size_t w = 0; w < fp_row_; w += 8) {
      std::uint64_t x;
      std::memcpy(&x, row + w, sizeof x);
      x ^= want;
      // The high bit of each byte of x that is zero, and no other bit: a
      // byte's low seven bits plus 0x7F is at most 0xFE, so no sum carries
      // into the next byte or out of the word.  Empty ways and the row's
      // padding hold fingerprint 0, which no tag has, so every candidate is
      // an occupied way whose fingerprint matches.
      std::uint64_t hits = ~(((x & kLow7) + kLow7) | x | kLow7);
      for (; hits != 0; hits &= hits - 1) {  // hits != 0: no wrap
        const std::size_t slot =
            (set << way_shift_) + w +
            static_cast<unsigned>(std::countr_zero(hits)) / 8;
        if (tags_[slot] == tag) return slot;
      }
    }
    return kNoSlot;
  }

  /// Makes `slot` its set's most recently used way.
  void touch(std::size_t slot) { to_head(slot >> way_shift_, way_of(slot)); }

  /// Places an absent `key` as its set's most recently used way, in an
  /// empty way if there is one, else over the least recently used.  The
  /// slot's payload starts value-initialised.
  Inserted insert(std::uint64_t key) {
    const std::uint64_t set = set_of(key);
    const std::size_t base = set << way_shift_;
    // The tail becomes the head: in a circular list that is the rotation.
    const std::uint16_t way = links_[base + heads_[set]].prev;
    heads_[set] = way;
    const std::size_t slot = base + way;
    std::uint8_t& fp = fps_[set * fp_row_ + way];
    Inserted r{slot, std::nullopt};
    if (fp != 0)
      r.evicted = (tags_[slot] << set_shift_) | set;
    else
      ++resident_;
    tags_[slot] = key >> set_shift_;
    fp = fingerprint(tags_[slot]);
    if constexpr (!std::is_empty_v<Payload>) payload_[slot] = Payload{};
    return r;
  }

  /// Empties `slot` and makes it its set's least recently used way.
  void erase(std::size_t slot) {
    const std::uint64_t set = slot >> way_shift_;
    const std::uint16_t way = way_of(slot);
    fps_[set * fp_row_ + way] = 0;
    --resident_;
    // Moved to the head, then the head stepped past it: now it is the tail.
    to_head(set, way);
    heads_[set] = links_[slot].next;
  }

  /// Empties every way; with all ways empty, any recency order is valid.
  void clear() {
    std::fill(fps_.begin(), fps_.end(), 0);
    resident_ = 0;
  }

  Payload& payload(std::size_t slot) { return payload_[slot]; }
  std::uint64_t resident() const { return resident_; }

 private:
  /// A way's neighbours in its set's circular recency list, as ways of
  /// that set: the head's prev is the tail, the tail's next the head.
  struct Link {
    std::uint16_t prev = 0;  ///< The next more recent way.
    std::uint16_t next = 0;  ///< The next less recent way.
  };

  [[noreturn]] static void reject(const char* what, const char* field,
                                  std::uint64_t n, const char* why) {
    std::string msg(what);
    msg += ": ";
    msg += field;
    msg += std::to_string(n);
    msg += why;
    throw std::invalid_argument(msg);
  }

  /// A tag's XOR of its eight bytes, with 0 (the empty mark) moved to 1.
  /// Shifts and XORs only, so nothing can wrap.
  static std::uint8_t fingerprint(std::uint64_t tag) {
    tag ^= tag >> 32;
    tag ^= tag >> 16;
    tag ^= tag >> 8;
    const auto b = static_cast<std::uint8_t>(tag & 0xFF);
    return static_cast<std::uint8_t>(b | (b == 0));
  }

  std::uint64_t set_of(std::uint64_t key) const { return key & set_mask_; }
  std::uint16_t way_of(std::size_t slot) const {
    const std::size_t span_mask = (std::size_t{1} << way_shift_) - 1;
    return static_cast<std::uint16_t>(slot & span_mask);
  }

  /// Unlinks `way` and relinks it as the head of `set`'s list.
  void to_head(std::uint64_t set, std::uint16_t way) {
    std::uint16_t& head = heads_[set];
    if (way == head) return;
    const std::size_t base = set << way_shift_;
    Link& l = links_[base + way];
    Link& h = links_[base + head];
    if (way != h.prev) {  // the tail needs no relinking: it precedes the head
      links_[base + l.prev].next = l.next;
      links_[base + l.next].prev = l.prev;
      links_[base + h.prev].next = way;
      l.prev = h.prev;
      l.next = head;
      h.prev = way;
    }
    head = way;
  }

  unsigned way_shift_ = 0;  ///< log2 of a set's slot span, bit_ceil(ways).
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::size_t fp_row_ = 0;  ///< Fingerprint bytes per set, a multiple of 8.
  std::uint64_t resident_ = 0;
  std::vector<std::uint64_t> tags_;   ///< Slot-indexed: set << way_shift | way.
  std::vector<std::uint8_t> fps_;     ///< sets × fp_row_; 0 = empty or padding.
  std::vector<Link> links_;           ///< Slot-indexed recency links.
  std::vector<std::uint16_t> heads_;  ///< Per set: its most recent way.
  std::vector<Payload> payload_;      ///< Left empty for NoPayload.
};

}  // namespace its::mem
