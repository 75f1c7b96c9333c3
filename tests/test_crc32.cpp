// Tests for the shared CRC-32 (common/crc32.hpp): the IEEE check value and
// agreement with a plain bytewise table CRC — the implementation wire frames
// and store records used before slicing-by-8 — at every length up to one
// page plus one byte and every start alignment, so no frame or record byte
// on the wire or on disk changes.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace xpuf {
namespace {

/// Bytewise reflected CRC-32, the oracle.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::uint64_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint64_t i = 0; i < size; ++i) c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  const std::vector<std::uint8_t> check = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(check.data(), check.size()), 0xCBF43926u) << "the oracle itself";
  EXPECT_EQ(crc32(std::vector<std::uint8_t>{}), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesTheBytewiseTableAtEveryLengthAndAlignment) {
  constexpr std::size_t kMaxLength = 4097;
  constexpr std::size_t kAlignments = 8;
  Rng rng(0xC3C32);
  std::vector<std::uint8_t> buffer(kMaxLength + kAlignments);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t align = 0; align < kAlignments; ++align) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const std::uint8_t* data = buffer.data() + align;
      ASSERT_EQ(crc32(data, length), crc32_bytewise(data, length))
          << "length " << length << " alignment " << align;
    }
  }
}

}  // namespace
}  // namespace xpuf
