#include "src/util/crc32.h"

#include <algorithm>
#include <array>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/thread_pool.h"

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

/// Inputs of at least two blocks of this size are CRC'd block-parallel.
/// A constant, so the split never depends on the machine.
constexpr std::size_t kParallelBlock = std::size_t{1} << 20;

// CRC concatenation in GF(2) (zlib's crc32_combine): with crc(A) and
// crc(B) known, crc(A || B) = crc(A) * x^(8 * |B|) mod P + crc(B), in the
// reflected bit order the tables use, where bit 31 holds x^0.

/// a * b mod P.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  while (true) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ 0xedb88320u : b >> 1;
  }
  return p;
}

/// x2n[k] = x^(2^k) mod P.
constexpr std::array<std::uint32_t, 32> make_x2n() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  t[0] = p;
  for (std::size_t k = 1; k < t.size(); ++k) t[k] = p = multmodp(p, p);
  return t;
}

constexpr std::array<std::uint32_t, 32> kX2n = make_x2n();

/// x^(8 * bytes) mod P: the factor that shifts a CRC past `bytes` zeros.
std::uint32_t x8nmodp(std::uint64_t bytes) {
  std::uint32_t p = 1u << 31;  // x^0
  for (unsigned k = 3; bytes != 0; bytes >>= 1, ++k) {
    if (bytes & 1) p = multmodp(kX2n[k & 31], p);
  }
  return p;
}

/// The CRC-32 of `data` in one serial pass.
std::uint32_t serial_crc32(std::span<const std::uint8_t> data) {
  const auto& t = kTables;
  std::uint32_t crc = 0xffffffffu;
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
  return ~crc;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const std::size_t n = data.size();
  const auto blocks =
      static_cast<std::int64_t>((n + kParallelBlock - 1) / kParallelBlock);
  if (blocks < 2) return serial_crc32(data);
  // Each chunk of whole blocks the pool hands out is CRC'd in one pass and
  // recorded at its first block; the chunk CRCs then join in input order.
  // A pool of one runs a single chunk: the serial pass.
  std::vector<std::uint32_t> crc(blocks);
  std::vector<std::size_t> len(blocks, 0);
  parallel_for(0, blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
    const std::size_t begin = static_cast<std::size_t>(lo) * kParallelBlock;
    const std::size_t end =
        std::min(n, static_cast<std::size_t>(hi) * kParallelBlock);
    crc[lo] = serial_crc32(data.subspan(begin, end - begin));
    len[lo] = end - begin;
  });
  std::uint32_t out = 0;  // CRC of the empty prefix
  for (std::int64_t i = 0; i < blocks; ++i) {
    if (len[i] != 0) out = crc32_combine(out, crc[i], len[i]);
  }
  return out;
}

std::uint32_t crc32(std::string_view data) { return crc32(as_bytes(data)); }

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

}  // namespace offload::util
