#include "src/vmsynth/compress.h"

#include <array>
#include <cstring>

#include "src/util/crc32.h"
#include "src/util/thread_pool.h"

namespace offload::vmsynth {
namespace {

// Single-stream format ("MLZ1"): magic | varint original_size |
// u32 crc32(original) | sequences.
// Sequence (LZ4 field order): token byte (high nibble literal length, low
// nibble match length - kMinMatch; 15 = "read extension bytes"), literal
// length extension (255-runs), the literals, then — unless this is the
// final literals-only sequence — a 2-byte little-endian match offset and
// the match length extension.
//
// Framed parallel format ("MLZB"): magic | varint original_size |
// u32 crc32(original) | varint block_count | block_count frames of
// { varint raw_len, varint seq_len, sequences }. Each block is an
// independent LZ77 stream (its own window), so blocks compress and
// decompress in parallel and the bytes are identical at any thread count.
// Inputs that fit in a single block use MLZ1, byte-identical to the old
// single-stream compressor.
constexpr std::string_view kMagic = "MLZ1";
constexpr std::string_view kMagicBlocked = "MLZB";
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kHashBits = 16;
constexpr int kMaxChainDepth = 32;

/// Block size of the framed format. Big enough that the per-block window
/// reset costs only a few % of ratio, small enough that 4 MB overlays
/// split into several parallel units.
constexpr std::size_t kBlockSize = 1u << 20;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void write_length(util::BinaryWriter& w, std::size_t extra) {
  while (extra >= 255) {
    w.u8(255);
    extra -= 255;
  }
  w.u8(static_cast<std::uint8_t>(extra));
}

std::size_t read_length(util::BinaryReader& r, std::size_t base) {
  if (base != 15) return base;
  std::size_t len = 15;
  while (true) {
    std::uint8_t b = r.u8();
    len += b;
    if (b != 255) break;
  }
  return len;
}

/// LZ77-encode `input` as a self-terminated sequence stream into `w`
/// (no container header). Matches only reference positions inside `input`,
/// so a block compressed by this is independently decodable.
void compress_sequences(util::BinaryWriter& w,
                        std::span<const std::uint8_t> input) {
  const std::uint8_t* data = input.data();
  const std::size_t n = input.size();

  // Hash table of chain heads plus per-position previous links.
  std::vector<std::int64_t> head(1u << kHashBits, -1);
  std::vector<std::int64_t> prev(n, -1);

  std::size_t pos = 0;
  std::size_t literal_start = 0;

  auto emit_sequence = [&](std::size_t match_pos, std::size_t match_len,
                           std::size_t offset) {
    const std::size_t lit_len = match_pos - literal_start;
    const std::size_t match_code =
        match_len == 0 ? 0 : match_len - kMinMatch;
    std::uint8_t token =
        static_cast<std::uint8_t>((std::min<std::size_t>(lit_len, 15) << 4) |
                                  std::min<std::size_t>(match_code, 15));
    w.u8(token);
    if (lit_len >= 15) write_length(w, lit_len - 15);
    w.raw(std::span(data + literal_start, lit_len));
    if (match_len > 0) {
      w.u16(static_cast<std::uint16_t>(offset));
      if (match_code >= 15) write_length(w, match_code - 15);
    }
  };

  while (pos + kMinMatch <= n) {
    // Find the longest match via the hash chain.
    std::uint32_t h = hash4(data + pos);
    std::int64_t candidate = head[h];
    std::size_t best_len = 0;
    std::size_t best_offset = 0;
    int depth = 0;
    while (candidate >= 0 && depth < kMaxChainDepth) {
      std::size_t offset = pos - static_cast<std::size_t>(candidate);
      if (offset > kMaxOffset) break;  // chain is ordered; older = farther
      std::size_t len = 0;
      const std::size_t max_len = n - pos;
      const std::uint8_t* a = data + candidate;
      const std::uint8_t* b = data + pos;
      while (len < max_len && a[len] == b[len]) ++len;
      if (len >= kMinMatch && len > best_len) {
        best_len = len;
        best_offset = offset;
      }
      candidate = prev[static_cast<std::size_t>(candidate)];
      ++depth;
    }

    if (best_len >= kMinMatch) {
      emit_sequence(pos, best_len, best_offset);
      // Insert positions covered by the match into the chains (sparsely —
      // every position keeps the format exact but costs time; every
      // position is fine at our sizes).
      std::size_t end = pos + best_len;
      while (pos < end && pos + kMinMatch <= n) {
        std::uint32_t hh = hash4(data + pos);
        prev[pos] = head[hh];
        head[hh] = static_cast<std::int64_t>(pos);
        ++pos;
      }
      pos = end;
      literal_start = pos;
    } else {
      prev[pos] = head[h];
      head[h] = static_cast<std::int64_t>(pos);
      ++pos;
    }
  }

  // Final literals-only sequence (always emitted, possibly empty, so the
  // decoder has a terminator).
  emit_sequence(n, 0, 0);
}

/// Decode one sequence stream into out[0..raw_len). Throws DecodeError on
/// malformed input.
void decompress_sequences(util::BinaryReader& r, std::uint8_t* out,
                          std::size_t raw_len) {
  std::size_t filled = 0;
  // The encoder terminates every stream with a literals-only sequence
  // (possibly an empty one, when a match ends flush with the block), so
  // decoding runs until that terminator — not merely until the output is
  // full — and consumes the stream exactly.
  while (true) {
    std::uint8_t token = r.u8();
    std::size_t lit_len = read_length(r, token >> 4);
    std::size_t match_code = token & 0x0f;
    if (lit_len > raw_len - filled) {
      throw util::DecodeError("mlzma: literal run past end");
    }
    auto lits = r.raw(lit_len);
    // An empty run may come with null pointers (empty input, empty span),
    // and memcpy with a null pointer is undefined even for length 0.
    if (lit_len > 0) std::memcpy(out + filled, lits.data(), lit_len);
    filled += lit_len;
    if (filled >= raw_len) break;  // final literals-only sequence
    std::size_t offset = r.u16();
    std::size_t match_len = read_length(r, match_code) + kMinMatch;
    if (offset == 0 || offset > filled) {
      throw util::DecodeError("mlzma: bad match offset");
    }
    if (match_len > raw_len - filled) {
      throw util::DecodeError("mlzma: match run past end");
    }
    // Byte-by-byte copy: overlapping matches (offset < length) replicate,
    // which is the LZ77 run-length trick.
    const std::size_t from = filled - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      out[filled + i] = out[from + i];
    }
    filled += match_len;
  }
}

util::Bytes decompress_single(util::BinaryReader& r) {
  const std::size_t original = static_cast<std::size_t>(r.varint());
  const std::uint32_t expected_crc = r.u32();
  util::Bytes out(original);
  decompress_sequences(r, out.data(), original);
  if (util::crc32(std::span<const std::uint8_t>(out)) != expected_crc) {
    throw util::DecodeError("mlzma: checksum mismatch (corrupt stream)");
  }
  return out;
}

util::Bytes decompress_blocked(util::BinaryReader& r,
                               std::span<const std::uint8_t> input) {
  const std::size_t original = static_cast<std::size_t>(r.varint());
  const std::uint32_t expected_crc = r.u32();
  const std::size_t blocks = static_cast<std::size_t>(r.varint());
  if (blocks > original / kMinMatch + 2) {
    throw util::DecodeError("mlzma: implausible block count");
  }

  // Walk the frame table once to locate every block's sequences and output
  // range, then decode the blocks in parallel into disjoint slices.
  struct Frame {
    std::size_t out_offset;
    std::size_t raw_len;
    std::size_t seq_offset;  // into `input`
    std::size_t seq_len;
  };
  std::vector<Frame> frames;
  frames.reserve(blocks);
  std::size_t out_offset = 0;
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t raw_len = static_cast<std::size_t>(r.varint());
    const std::size_t seq_len = static_cast<std::size_t>(r.varint());
    const std::size_t seq_offset = r.position();
    if (seq_len > r.remaining()) {
      throw util::DecodeError("mlzma: truncated block frame");
    }
    r.raw(seq_len);  // skip payload
    frames.push_back({out_offset, raw_len, seq_offset, seq_len});
    out_offset += raw_len;
  }
  if (out_offset != original) {
    throw util::DecodeError("mlzma: size mismatch after decompress");
  }

  util::Bytes out(original);
  std::uint8_t* dst = out.data();
  auto decode = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const Frame& f = frames[static_cast<std::size_t>(i)];
      util::BinaryReader block(input.subspan(f.seq_offset, f.seq_len));
      decompress_sequences(block, dst + f.out_offset, f.raw_len);
      if (!block.done()) {
        throw util::DecodeError("mlzma: trailing bytes in block");
      }
    }
  };
  util::parallel_for(0, static_cast<std::int64_t>(frames.size()), 1, decode);

  if (util::crc32(std::span<const std::uint8_t>(out)) != expected_crc) {
    throw util::DecodeError("mlzma: checksum mismatch (corrupt stream)");
  }
  return out;
}

}  // namespace

util::Bytes compress_single_stream(std::span<const std::uint8_t> input) {
  util::BinaryWriter w;
  w.raw(kMagic);
  w.varint(input.size());
  w.u32(util::crc32(input));
  compress_sequences(w, input);
  return std::move(w).take();
}

util::Bytes compress(std::span<const std::uint8_t> input) {
  // The format choice depends only on the input size — never on thread
  // count — so compressed bytes are reproducible across machines and
  // OFFLOAD_THREADS settings.
  if (input.size() <= kBlockSize) return compress_single_stream(input);

  const std::size_t blocks = (input.size() + kBlockSize - 1) / kBlockSize;
  std::vector<util::Bytes> compressed(blocks);
  auto run = [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * kBlockSize;
      const std::size_t len = std::min(kBlockSize, input.size() - off);
      util::BinaryWriter bw;
      compress_sequences(bw, input.subspan(off, len));
      compressed[static_cast<std::size_t>(i)] = std::move(bw).take();
    }
  };
  util::parallel_for(0, static_cast<std::int64_t>(blocks), 1, run);

  util::BinaryWriter w;
  w.raw(kMagicBlocked);
  w.varint(input.size());
  w.u32(util::crc32(input));
  w.varint(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::size_t off = i * kBlockSize;
    w.varint(std::min(kBlockSize, input.size() - off));  // raw_len
    w.varint(compressed[i].size());                      // seq_len
    w.raw(std::span<const std::uint8_t>(compressed[i]));
  }
  return std::move(w).take();
}

util::Bytes decompress(std::span<const std::uint8_t> input) {
  util::BinaryReader r(input);
  auto magic = util::to_string(r.raw(4));
  if (magic == kMagic) return decompress_single(r);
  if (magic == kMagicBlocked) return decompress_blocked(r, input);
  throw util::DecodeError("mlzma: bad magic");
}

}  // namespace offload::vmsynth
