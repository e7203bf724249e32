#include "src/util/crc32.h"

#include <array>

#include "src/util/bytes.h"

namespace offload::util {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8: tables[0] is the classic bytewise table (reflected
// 0xedb88320); tables[k][i] is the CRC of byte i followed by k zero bytes,
// so eight input bytes fold into the state with eight independent lookups.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Four bytes as a little-endian word, by explicit shifts so the result does
/// not depend on the host's byte order.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(std::span<const std::uint8_t> data) {
  const auto& t = kTables;
  std::uint32_t crc = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  state_ = crc;
}

void Crc32::update(std::string_view data) { update(as_bytes(data)); }

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

std::uint32_t crc32(std::string_view data) { return crc32(as_bytes(data)); }

}  // namespace offload::util
