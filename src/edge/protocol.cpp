#include "src/edge/protocol.h"

#include "src/util/crc32.h"

namespace offload::edge {
namespace {

/// Entry count of a list payload, read from the wire. Every entry takes at
/// least one byte, so a count above the bytes left is malformed: reject it
/// before it sizes an allocation.
std::size_t read_count(util::BinaryReader& r, const char* what) {
  const std::uint64_t count = r.varint();
  if (count > r.remaining()) {
    throw util::DecodeError(std::string(what) + ": entry count " +
                            std::to_string(count) + " exceeds the " +
                            std::to_string(r.remaining()) + " bytes left");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace

PayloadCorruptError::PayloadCorruptError(const net::Message& message)
    : std::runtime_error(std::string("corrupt payload in ") +
                         net::message_type_name(message.type) +
                         " message '" + message.name + "'") {}

bool payload_intact(const net::Message& message) {
  return message.crc == util::crc32(message.payload);
}

void verify_payload(const net::Message& message) {
  if (!payload_intact(message)) throw PayloadCorruptError(message);
}

util::Bytes ModelFilesPayload::encode() const {
  std::size_t size = util::varint_size(files.size());
  for (const auto& f : files) {
    size += util::varint_size(f.name.size()) + f.name.size() +
            util::varint_size(f.size()) + f.size();
  }
  util::BinaryWriter w;
  w.reserve(size);
  w.varint(files.size());
  for (const auto& f : files) {
    w.str(f.name);
    w.blob(f.bytes());
  }
  return std::move(w).take();
}

ModelFilesPayload ModelFilesPayload::decode(
    std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  ModelFilesPayload out;
  const std::size_t count = read_count(r, "ModelFilesPayload");
  out.files.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = r.str();
    out.files.emplace_back(std::move(name), r.blob());
  }
  return out;
}

util::Bytes ModelOfferPayload::encode() const {
  util::BinaryWriter w;
  w.varint(files.size());
  for (const auto& f : files) {
    w.str(f.name);
    w.u64(f.digest);
    w.u64(f.bytes);
  }
  return std::move(w).take();
}

ModelOfferPayload ModelOfferPayload::decode(
    std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  ModelOfferPayload out;
  const std::size_t count = read_count(r, "ModelOfferPayload");
  out.files.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Entry e;
    e.name = r.str();
    e.digest = r.u64();
    e.bytes = r.u64();
    out.files.push_back(std::move(e));
  }
  return out;
}

util::Bytes FileListPayload::encode() const {
  util::BinaryWriter w;
  w.varint(names.size());
  for (const auto& n : names) w.str(n);
  return std::move(w).take();
}

FileListPayload FileListPayload::decode(std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  FileListPayload out;
  const std::size_t count = read_count(r, "FileListPayload");
  out.names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.names.push_back(r.str());
  return out;
}

util::Bytes SnapshotPayload::encode() const {
  util::BinaryWriter w;
  w.u64(cut);
  w.u8(differential ? 1 : 0);
  w.u64(base_version);
  w.str(program);
  return std::move(w).take();
}

SnapshotPayload SnapshotPayload::decode(std::span<const std::uint8_t> data) {
  util::BinaryReader r(data);
  SnapshotPayload out;
  out.cut = r.u64();
  out.differential = r.u8() != 0;
  out.base_version = r.u64();
  out.program = r.str();
  return out;
}

}  // namespace offload::edge
