#include "common/crc32.hpp"

#include <array>

namespace xpuf {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Table s maps a byte to the CRC contribution it makes when s zero bytes
/// follow it; table 0 is the classic bytewise table.
constexpr CrcTables make_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
  return t;
}

constexpr CrcTables kTables = make_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    // Little-endian assembly: byte 0 meets the low byte of the running CRC.
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(data[b]) << (8 * b);
    v ^= c;
    c = kTables[7][v & 0xffu] ^ kTables[6][(v >> 8) & 0xffu] ^ kTables[5][(v >> 16) & 0xffu] ^
        kTables[4][(v >> 24) & 0xffu] ^ kTables[3][(v >> 32) & 0xffu] ^
        kTables[2][(v >> 40) & 0xffu] ^ kTables[1][(v >> 48) & 0xffu] ^ kTables[0][v >> 56];
  }
  for (; size > 0; ++data, --size) c = kTables[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace xpuf
