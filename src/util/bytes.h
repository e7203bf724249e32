// Byte-buffer primitives: a growable byte container plus little-endian
// binary reader/writer used by every serialization format in the project
// (model weights, snapshots, VM overlays, network messages).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace offload::util {

using Bytes = std::vector<std::uint8_t>;

/// Thrown when a BinaryReader runs past the end of its input or a
/// format-level check fails while decoding.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian append-only encoder over an owned byte vector.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  /// A block of floats, each as f32 writes it: one append on little-endian
  /// hosts.
  void f32s(std::span<const float> v);

  /// Unsigned LEB128; compact encoding for sizes and counts.
  void varint(std::uint64_t v);

  /// Length-prefixed (varint) string.
  void str(std::string_view s);

  /// Length-prefixed (varint) blob.
  void blob(std::span<const std::uint8_t> data);

  /// Raw bytes, no length prefix.
  void raw(std::span<const std::uint8_t> data);
  void raw(std::string_view data);

  /// Pre-size the buffer when the encoded size is known up front.
  void reserve(std::size_t n) { buf_.reserve(n); }
  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Little-endian decoder over a non-owning byte span. Throws DecodeError on
/// overrun so callers never read stale/garbage values.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  /// Fill `out` with floats as f32 reads them: one memcpy on little-endian
  /// hosts. Throws DecodeError, leaving `out` untouched, when fewer than
  /// 4 * out.size() bytes remain.
  void f32s(std::span<float> out);

  std::uint64_t varint();
  std::string str();
  Bytes blob();

  /// Raw bytes with an explicit count.
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> take(std::size_t n);

  template <typename T>
  T read_le() {
    auto s = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(s[i]) << (8 * i));
    }
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Encoded length of `v` as BinaryWriter::varint writes it.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Convenience: view a string as bytes (no copy).
inline std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Convenience: copy bytes into a std::string.
inline std::string to_string(std::span<const std::uint8_t> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace offload::util
