// CRC-32 (IEEE 802.3 polynomial) used for integrity checks on snapshots,
// model files and VM overlay chunks.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace offload::util {

/// One-shot CRC-32 of a byte span. Inputs of 2 MiB or more are CRC'd in
/// 1 MiB blocks on the default pool and the block CRCs combined exactly, so
/// the value is the serial one at any pool size.
std::uint32_t crc32(std::span<const std::uint8_t> data);
std::uint32_t crc32(std::string_view data);

}  // namespace offload::util
