// ChallengeLedger against a std::set<std::string> of packed rows as the
// oracle: same membership answers, same size, and a sorted walk in the
// set's byte order, at key widths from 1 to 128 stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "puf/store/ledger.hpp"
#include "puf/store/record.hpp"
#include "sim/linear.hpp"

namespace {

using xpuf::Rng;
using xpuf::puf::store::ChallengeLedger;
using xpuf::puf::store::words_to_row;
using Key = std::vector<std::uint64_t>;

const std::size_t kStageCounts[] = {1, 8, 13, 32, 63, 64, 65, 128};

std::uint64_t tail_mask(std::size_t stages) {
  return stages % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (stages % 64)) - 1;
}

Key random_key(std::size_t stages, Rng& rng) {
  Key key(xpuf::sim::packed_words(stages));
  for (std::uint64_t& w : key) w = rng.next_u64();
  key.back() &= tail_mask(stages);
  return key;
}

Key ones_key(std::size_t stages) {
  Key key(xpuf::sim::packed_words(stages), ~std::uint64_t{0});
  key.back() &= tail_mask(stages);
  return key;
}

/// The key's packed row as the old ledger stored it.
std::string row_of(const std::uint64_t* key, std::size_t stages) {
  std::vector<std::uint8_t> row;
  words_to_row(key, stages, row);
  return std::string(row.begin(), row.end());
}

/// sorted_words() as rows, in the order returned.
std::vector<std::string> sorted_rows(const ChallengeLedger& ledger) {
  const std::vector<std::uint64_t> words = ledger.sorted_words();
  std::vector<std::string> rows;
  for (std::size_t at = 0; at < words.size(); at += ledger.key_words())
    rows.push_back(row_of(&words[at], ledger.stages()));
  return rows;
}

TEST(ChallengeLedger, MatchesTheStringSetOracleUnderRandomOps) {
  for (const std::size_t stages : kStageCounts) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    Rng rng(0x1ed9e7 + stages);
    ChallengeLedger ledger(stages);
    std::set<std::string> oracle;
    std::vector<Key> seen;  // keys ever inserted: erase/contains hit them too
    std::size_t rehashes = 0;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t kind = rng.next_u64() % 10;
      Key key = (kind >= 6 && !seen.empty() && rng.next_u64() % 2 == 0)
                    ? seen[rng.next_u64() % seen.size()]
                    : random_key(stages, rng);
      const std::string row = row_of(key.data(), stages);
      if (kind < 6) {
        const std::size_t capacity = ledger.capacity();
        ASSERT_EQ(ledger.insert(key.data()), oracle.insert(row).second) << "op " << op;
        if (ledger.capacity() != capacity) ++rehashes;
        seen.push_back(key);
      } else if (kind < 8) {
        ASSERT_EQ(ledger.erase(key.data()), oracle.erase(row) == 1) << "op " << op;
      } else {
        ASSERT_EQ(ledger.contains(key.data()), oracle.count(row) == 1) << "op " << op;
      }
      ASSERT_EQ(ledger.size(), oracle.size()) << "op " << op;
    }
    for (const Key& key : seen)
      EXPECT_EQ(ledger.contains(key.data()), oracle.count(row_of(key.data(), stages)) == 1);
    const std::vector<std::string> walk(oracle.begin(), oracle.end());
    EXPECT_EQ(sorted_rows(ledger), walk) << "sorted walk differs from the set's byte order";
    // Tiny key spaces (1 and 8 stages) saturate early; wide ones grow the
    // table through several doublings.
    if (stages >= 13) {
      EXPECT_GE(rehashes, 8u);
    }
    EXPECT_LE(2 * ledger.size(), ledger.capacity());
  }
}

TEST(ChallengeLedger, AllZeroAndAllOnesKeysAreOrdinaryKeys) {
  for (const std::size_t stages : kStageCounts) {
    SCOPED_TRACE("stages " + std::to_string(stages));
    ChallengeLedger ledger(stages);
    const Key zero(xpuf::sim::packed_words(stages), 0);
    const Key ones = ones_key(stages);
    EXPECT_FALSE(ledger.contains(zero.data()));
    EXPECT_FALSE(ledger.contains(ones.data()));
    EXPECT_TRUE(ledger.insert(zero.data()));
    EXPECT_TRUE(ledger.contains(zero.data()));
    EXPECT_FALSE(ledger.contains(ones.data()));
    EXPECT_FALSE(ledger.insert(zero.data()));
    EXPECT_TRUE(ledger.insert(ones.data()));
    EXPECT_EQ(ledger.size(), 2u);
    EXPECT_EQ(sorted_rows(ledger),
              (std::vector<std::string>{row_of(zero.data(), stages), row_of(ones.data(), stages)}));
    EXPECT_TRUE(ledger.erase(zero.data()));
    EXPECT_FALSE(ledger.contains(zero.data()));
    EXPECT_TRUE(ledger.contains(ones.data()));
    EXPECT_FALSE(ledger.erase(zero.data()));
    EXPECT_EQ(ledger.size(), 1u);
  }
}

TEST(ChallengeLedger, GrowthKeepsEveryKeyAndTheBytesPerKeyBound) {
  // Sequential keys: structured input must still spread over the table.
  ChallengeLedger ledger(32);
  constexpr std::uint64_t kKeys = 100000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(ledger.insert(&k));
    const std::size_t capacity = ledger.capacity();
    ASSERT_EQ(capacity & (capacity - 1), 0u) << "capacity is not a power of two";
    ASSERT_LE(2 * ledger.size(), capacity);
    // One 8 B word + 1/8 B of bitmap per slot, at >= 1/4 load once the
    // table has outgrown its first allocation: <= 32.5 B per key.
    if (ledger.size() > 16) {
      ASSERT_LE(static_cast<double>(ledger.heap_bytes()) / static_cast<double>(ledger.size()),
                32.5 + 1e-9)
          << "at " << ledger.size() << " keys";
    }
  }
  EXPECT_EQ(ledger.size(), kKeys);
  EXPECT_EQ(ledger.capacity(), 262144u);
  for (std::uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(ledger.contains(&k)) << k;
  for (std::uint64_t k = kKeys; k < kKeys + 1000; ++k) ASSERT_FALSE(ledger.contains(&k)) << k;
}

TEST(ChallengeLedger, EraseInsideProbeChainsKeepsEveryOtherKeyReachable) {
  // 8 stages: 128 of the 256 keys fill a 256-slot table to exactly half
  // load, where linear-probe chains are long and overlapping. Erasing them
  // in random order moves keys back along every chain.
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint64_t> keys(256);
    for (std::uint64_t k = 0; k < 256; ++k) keys[k] = k;
    for (std::size_t i = keys.size() - 1; i > 0; --i)
      std::swap(keys[i], keys[rng.next_u64() % (i + 1)]);
    keys.resize(128);
    ChallengeLedger ledger(8);
    for (const std::uint64_t k : keys) ASSERT_TRUE(ledger.insert(&k));
    ASSERT_EQ(ledger.capacity(), 256u);
    std::set<std::uint64_t> present(keys.begin(), keys.end());
    for (std::size_t i = keys.size() - 1; i > 0; --i)
      std::swap(keys[i], keys[rng.next_u64() % (i + 1)]);
    for (const std::uint64_t k : keys) {
      ASSERT_TRUE(ledger.erase(&k));
      present.erase(k);
      for (std::uint64_t q = 0; q < 256; ++q)
        ASSERT_EQ(ledger.contains(&q), present.count(q) == 1)
            << "trial " << trial << ", key " << q << " after erasing " << k;
    }
    EXPECT_TRUE(ledger.empty());
  }
}

TEST(ChallengeLedger, EqualityIsByContentNotInsertionOrder) {
  for (const std::size_t stages : {13u, 65u}) {
    Rng rng(stages);
    std::vector<Key> keys;
    std::set<Key> distinct;
    while (keys.size() < 300) {
      Key k = random_key(stages, rng);
      if (distinct.insert(k).second) keys.push_back(std::move(k));
    }
    ChallengeLedger forward(stages);
    ChallengeLedger backward(stages);
    backward.reserve(4096);  // different table size, different layout
    for (const Key& k : keys) forward.insert(k.data());
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) backward.insert(it->data());
    EXPECT_NE(forward.capacity(), backward.capacity());
    EXPECT_TRUE(forward == backward);
    EXPECT_TRUE(backward == forward);
    ChallengeLedger copy = forward;
    EXPECT_TRUE(copy == forward);
    copy.erase(keys[17].data());
    EXPECT_FALSE(copy == forward);
    copy.insert(keys[17].data());
    EXPECT_TRUE(copy == forward);
    copy.erase(keys[3].data());
    while (!copy.insert(random_key(stages, rng).data())) {
    }
    EXPECT_EQ(copy.size(), forward.size());
    EXPECT_FALSE(copy == forward);
    EXPECT_FALSE(ChallengeLedger(stages) == ChallengeLedger(stages + 1));
  }
}

TEST(ChallengeLedger, RejectsNonCanonicalKeysAndUnboundInserts) {
  ChallengeLedger ledger(13);
  const std::uint64_t past_the_stages = std::uint64_t{1} << 13;
  EXPECT_THROW(ledger.insert(&past_the_stages), std::invalid_argument);
  EXPECT_FALSE(ledger.contains(&past_the_stages));
  EXPECT_TRUE(ledger.empty());
  ChallengeLedger unbound;
  const std::uint64_t zero = 0;
  EXPECT_THROW(unbound.insert(&zero), std::invalid_argument);
  EXPECT_FALSE(unbound.contains(&zero));
  EXPECT_FALSE(unbound.erase(&zero));
  EXPECT_THROW((void)ChallengeLedger(0), std::invalid_argument);
}

}  // namespace
