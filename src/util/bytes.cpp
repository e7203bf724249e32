#include "src/util/bytes.h"

#include <bit>

namespace offload::util {

void BinaryWriter::f32(float v) {
  static_assert(sizeof(float) == 4);
  u32(std::bit_cast<std::uint32_t>(v));
}

void BinaryWriter::f32s(std::span<const float> v) {
  if constexpr (std::endian::native == std::endian::little) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size_bytes());
  } else {
    for (float x : v) f32(x);
  }
}

void BinaryWriter::f64(double v) {
  static_assert(sizeof(double) == 8);
  u64(std::bit_cast<std::uint64_t>(v));
}

void BinaryWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void BinaryWriter::str(std::string_view s) {
  varint(s.size());
  raw(s);
}

void BinaryWriter::blob(std::span<const std::uint8_t> data) {
  varint(data.size());
  raw(data);
}

void BinaryWriter::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void BinaryWriter::raw(std::string_view data) { raw(as_bytes(data)); }

float BinaryReader::f32() { return std::bit_cast<float>(u32()); }

void BinaryReader::f32s(std::span<float> out) {
  // Bounds-check the whole block before writing any element.
  auto s = take(out.size_bytes());
  if (out.empty()) return;  // no null pointer reaches memcpy
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data(), s.data(), s.size());
  } else {
    BinaryReader block(s);
    for (float& x : out) x = block.f32();
  }
}

double BinaryReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t BinaryReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift >= 64) throw DecodeError("varint too long");
    std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::string BinaryReader::str() {
  auto n = varint();
  auto s = take(static_cast<std::size_t>(n));
  return to_string(s);
}

Bytes BinaryReader::blob() {
  auto n = varint();
  auto s = take(static_cast<std::size_t>(n));
  return {s.begin(), s.end()};
}

std::span<const std::uint8_t> BinaryReader::take(std::size_t n) {
  if (remaining() < n) {
    throw DecodeError("BinaryReader overrun: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }
  auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

}  // namespace offload::util
