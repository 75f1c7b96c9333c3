#include "puf/store/ledger.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/error.hpp"

namespace xpuf::puf::store {

namespace {

/// Slots allocated by the first insert.
constexpr std::size_t kMinCapacity = 16;

/// A key word's bytes in row order (LSB-first) read as a big-endian number:
/// comparing these compares the packed rows bytewise.
std::uint64_t row_order(std::uint64_t word) { return __builtin_bswap64(word); }

}  // namespace

ChallengeLedger::ChallengeLedger(std::size_t stages)
    : stages_(static_cast<std::uint32_t>(stages)) {
  XPUF_REQUIRE(stages >= 1 && stages <= UINT32_MAX,
               "a ledger needs between 1 and 2^32 - 1 stages per key");
}

std::size_t ChallengeLedger::home(const std::uint64_t* key) const {
  // Multiplicative (Fibonacci) hashing: the product's top bits depend on
  // every key bit, and the slot index is exactly those top bits.
  std::uint64_t h = 0;
  for (std::size_t w = 0; w < key_words(); ++w) h = (h ^ key[w]) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h >> shift_);
}

// Private hot-path helper: every caller passes a slot index below capacity_.
// xpuf-lint: allow(require-guard)
void ChallengeLedger::set_used(std::size_t i, bool on) {
  std::uint64_t& word = table_[capacity_ * key_words() + i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  word = on ? (word | bit) : (word & ~bit);
}

// Private hot-path helper: every caller checked capacity_ > 0 first.
// xpuf-lint: allow(require-guard)
bool ChallengeLedger::find(const std::uint64_t* key, std::size_t& at) const {
  const std::size_t mask = capacity_ - 1;
  // Load stays at most one half, so every probe chain ends in an empty slot.
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    if (!used(i)) {
      at = i;
      return false;
    }
    if (std::equal(key, key + key_words(), slot(i))) {
      at = i;
      return true;
    }
  }
}

void ChallengeLedger::rehash(std::size_t new_capacity) {
  XPUF_REQUIRE(std::has_single_bit(new_capacity) && new_capacity >= 2 * size_,
               "ledger table must be a power of two at most half full");
  const std::size_t nw = key_words();
  const std::vector<std::uint64_t> old = std::move(table_);
  const std::size_t old_capacity = capacity_;
  capacity_ = new_capacity;
  shift_ = 64u - static_cast<std::uint32_t>(std::countr_zero(new_capacity));
  table_.assign(new_capacity * nw + (new_capacity + 63) / 64, 0);
  const std::uint64_t* old_used = old.data() + old_capacity * nw;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (((old_used[i / 64] >> (i % 64)) & 1u) == 0) continue;
    const std::uint64_t* key = old.data() + i * nw;
    std::size_t at = 0;
    (void)find(key, at);
    std::copy(key, key + nw, slot(at));
    set_used(at, true);
  }
}

void ChallengeLedger::reserve(std::size_t n) {
  XPUF_REQUIRE(stages_ > 0, "reserve on an unbound ledger");
  const std::size_t want = std::bit_ceil(std::max(kMinCapacity, 2 * n));
  if (want > capacity_) rehash(want);
}

bool ChallengeLedger::insert(const std::uint64_t* key) {
  XPUF_REQUIRE(stages_ > 0, "insert into an unbound ledger");
  const std::size_t nw = key_words();
  XPUF_REQUIRE(stages_ % 64 == 0 || key[nw - 1] >> (stages_ % 64) == 0,
               "ledger key has bits past its stage count");
  std::size_t at = 0;
  if (capacity_ > 0 && find(key, at)) return false;
  if (2 * (size_ + 1) > capacity_) {
    rehash(capacity_ == 0 ? kMinCapacity : 2 * capacity_);
    (void)find(key, at);
  }
  std::copy(key, key + nw, slot(at));
  set_used(at, true);
  ++size_;
  return true;
}

// A lookup may ask for any key: an unbound or empty ledger contains none.
// xpuf-lint: allow(require-guard)
bool ChallengeLedger::contains(const std::uint64_t* key) const {
  std::size_t at = 0;
  return capacity_ > 0 && find(key, at);
}

// Erasing an absent key is a reported no-op, like std::set::erase.
// xpuf-lint: allow(require-guard)
bool ChallengeLedger::erase(const std::uint64_t* key) {
  std::size_t hole = 0;
  if (capacity_ == 0 || !find(key, hole)) return false;
  // Backward-shift deletion: pull each later key of the chain into the hole
  // unless its home lies cyclically after the hole, so every remaining key
  // stays reachable from its home without tombstones.
  const std::size_t mask = capacity_ - 1;
  for (std::size_t j = (hole + 1) & mask; used(j); j = (j + 1) & mask) {
    const std::size_t h = home(slot(j));
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      std::copy(slot(j), slot(j) + key_words(), slot(hole));
      hole = j;
    }
  }
  set_used(hole, false);
  --size_;
  return true;
}

std::vector<std::uint64_t> ChallengeLedger::sorted_words() const {
  const std::size_t nw = key_words();
  std::vector<std::uint64_t> keys;
  keys.reserve(size_ * nw);
  for (std::size_t i = 0; i < capacity_; ++i)
    if (used(i)) keys.insert(keys.end(), slot(i), slot(i) + nw);
  if (nw == 1) {
    for (std::uint64_t& k : keys) k = row_order(k);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t& k : keys) k = row_order(k);
    return keys;
  }
  std::vector<std::size_t> order(size_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t w = 0; w < nw; ++w) {
      const std::uint64_t x = row_order(keys[a * nw + w]);
      const std::uint64_t y = row_order(keys[b * nw + w]);
      if (x != y) return x < y;
    }
    return false;
  });
  std::vector<std::uint64_t> out;
  out.reserve(keys.size());
  for (const std::size_t k : order)
    out.insert(out.end(), keys.begin() + static_cast<std::ptrdiff_t>(k * nw),
               keys.begin() + static_cast<std::ptrdiff_t>((k + 1) * nw));
  return out;
}

bool operator==(const ChallengeLedger& a, const ChallengeLedger& b) {
  if (a.stages_ != b.stages_ || a.size_ != b.size_) return false;
  for (std::size_t i = 0; i < a.capacity_; ++i)
    if (a.used(i) && !b.contains(a.slot(i))) return false;
  return true;
}

}  // namespace xpuf::puf::store
