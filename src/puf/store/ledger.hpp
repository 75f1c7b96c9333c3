// ChallengeLedger — one device's replay ledger: every challenge the server
// ever issued to it, so none is ever issued twice.
//
// Representation: a flat open-addressing hash set of packed challenge
// words. A key is sim::packed_words(stages) u64 words in the screener's
// LSB-first layout (bit i of word i/64 = challenge bit i, bits at or past
// `stages` zero), which is byte for byte a pack_challenge row. Slots are
// one power-of-two array probed linearly from a multiplicative hash, with
// an occupancy bitmap behind the key words (all-zero and all-ones keys are
// ordinary keys) and backward-shift erase, so there are no tombstones and
// no per-key heap node. A slot of a <= 64-stage key is 8 B of key plus
// 1/8 B of bitmap, and the table doubles before it passes half load, so a
// key costs ~16.3 B at half load and ~32.5 B right after a doubling.
//
// Iteration order is the hash order and carries no meaning; compaction
// takes sorted_words(), which orders keys by the bytes of their packed rows,
// so a compacted shard's bytes depend on the ledger's contents alone and
// match the shards of stores compacted from a std::set of packed rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/linear.hpp"

namespace xpuf::puf::store {

class ChallengeLedger {
 public:
  /// An unbound ledger (no stage count): empty, accepts no key. Exists so
  /// ledgers can live in default-constructing containers.
  ChallengeLedger() = default;
  explicit ChallengeLedger(std::size_t stages);

  std::size_t stages() const { return stages_; }
  /// u64 words per key.
  std::size_t key_words() const { return sim::packed_words(stages_); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the table (0 before the first insert, else a power of two).
  std::size_t capacity() const { return capacity_; }
  /// Heap bytes held by the table (key words + occupancy bitmap).
  std::size_t heap_bytes() const { return table_.size() * sizeof(std::uint64_t); }

  /// Each takes key_words() words; bits at or past stages() must be zero.
  /// insert returns true iff the key was absent (and is now present);
  /// erase returns true iff it was present.
  bool insert(const std::uint64_t* key);
  bool contains(const std::uint64_t* key) const;
  bool erase(const std::uint64_t* key);

  /// Grows the table so `n` keys fit without a rehash.
  void reserve(std::size_t n);

  /// Every key, key_words() words each, ascending in the byte order of its
  /// packed row (unsigned lexicographic over pack_challenge bytes).
  std::vector<std::uint64_t> sorted_words() const;

  /// Same stage count and the same key set, whatever the insertion order.
  friend bool operator==(const ChallengeLedger& a, const ChallengeLedger& b);

 private:
  std::size_t home(const std::uint64_t* key) const;
  std::uint64_t* slot(std::size_t i) { return table_.data() + i * key_words(); }
  const std::uint64_t* slot(std::size_t i) const { return table_.data() + i * key_words(); }
  bool used(std::size_t i) const {
    return ((table_[capacity_ * key_words() + i / 64] >> (i % 64)) & 1u) != 0;
  }
  void set_used(std::size_t i, bool on);
  /// Probes for `key`: true with `at` = its slot, or false with `at` = the
  /// empty slot that ends its probe chain. Requires capacity_ > 0.
  bool find(const std::uint64_t* key, std::size_t& at) const;
  void rehash(std::size_t new_capacity);

  // 48 B, like an empty std::set: a million-device fleet holds a million
  // of these, most of them small.
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::uint32_t stages_ = 0;
  std::uint32_t shift_ = 64;  ///< 64 - log2(capacity_): home() keeps the hash's top bits
  /// capacity_ * key_words() key words, then ceil(capacity_ / 64) occupancy
  /// words.
  std::vector<std::uint64_t> table_;
};

}  // namespace xpuf::puf::store
