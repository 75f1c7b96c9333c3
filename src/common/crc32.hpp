// CRC-32 (IEEE 802.3): reflected polynomial 0xEDB88320, initial value and
// final XOR 0xFFFFFFFF, so crc32("123456789") == 0xCBF43926.
//
// The one checksum of the system: wire frames (net/wire.hpp) and store
// records (puf/store/record.hpp) both carry it. The kernel is slicing-by-8:
// eight bytes per step through eight 256-entry tables, with byte order fixed
// by explicit shifts, so the value is the bytewise table CRC's on any host.
#pragma once

#include <cstdint>
#include <span>

namespace xpuf {

std::uint32_t crc32(const std::uint8_t* data, std::uint64_t size);

inline std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace xpuf
