// The bytewise table CRC-32, kept for tests as the reference the sliced and
// block-parallel util::crc32 must agree with.
#pragma once

#include <cstdint>
#include <span>

namespace offload::test_util {

inline std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xffffffffu;
  for (auto b : data) crc = table[(crc ^ b) & 0xff] ^ (crc >> 8);
  return ~crc;
}

}  // namespace offload::test_util
