#include "src/edge/protocol.h"

#include <functional>
#include <memory>
#include <stdexcept>

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

/// One file of a kModelFiles body being written: its name, its exact size
/// and what appends its bytes.
struct FileFrame {
  std::string_view name;
  std::uint64_t size = 0;
  std::function<void(util::BinaryWriter&)> put;
};

/// Where a file's bytes sit in a framed body.
struct FileSpan {
  std::string name;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Write the body framing `frames` into `w`, sized once up front. Returns
/// where each file's bytes went.
std::vector<FileSpan> write_frames(util::BinaryWriter& w,
                                   std::span<const FileFrame> frames) {
  std::size_t size = util::varint_size(frames.size());
  for (const FileFrame& f : frames) {
    size += util::varint_size(f.name.size()) + f.name.size() +
            util::varint_size(f.size) + f.size;
  }
  w.reserve(size);
  w.varint(frames.size());
  std::vector<FileSpan> spans;
  spans.reserve(frames.size());
  for (const FileFrame& f : frames) {
    w.str(f.name);
    w.varint(f.size);
    const std::size_t offset = w.size();
    f.put(w);
    if (w.size() - offset != f.size) {
      throw std::logic_error("ModelFilesPayload: file '" +
                             std::string(f.name) +
                             "' wrote other than its declared size");
    }
    spans.push_back({std::string(f.name), offset, f.size});
  }
  return spans;
}

/// The files a framed body lists, located without reading their bytes.
std::vector<FileSpan> locate_files(std::span<const std::uint8_t> body) {
  util::BinaryReader r(body);
  const std::size_t count = read_count(r, "ModelFilesPayload");
  std::vector<FileSpan> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FileSpan f;
    f.name = r.str();
    f.size = static_cast<std::size_t>(r.varint());
    f.offset = r.position();
    r.raw(f.size);
    out.push_back(std::move(f));
  }
  return out;
}

/// Views of `spans` into `buffer`, reading every byte of it once: each
/// file's bytes give its CRC, the framing around them is CRC'd apart, and
/// all of it folds, in order, into the whole buffer's CRC (`crc`).
std::vector<nn::ModelFile> view_files(
    const std::shared_ptr<const util::Bytes>& buffer,
    std::vector<FileSpan> spans, std::uint32_t& crc) {
  const std::span<const std::uint8_t> bytes(*buffer);
  std::size_t pos = 0;
  crc = 0;
  auto fold = [&](std::size_t end, std::uint32_t segment_crc) {
    crc = util::crc32_combine(crc, segment_crc, end - pos);
    pos = end;
  };
  auto fold_framing = [&](std::size_t end) {
    fold(end, util::crc32(bytes.subspan(pos, end - pos)));
  };
  std::vector<nn::ModelFile> files;
  files.reserve(spans.size());
  for (FileSpan& f : spans) {
    fold_framing(f.offset);
    const std::uint32_t file_crc = util::crc32(bytes.subspan(f.offset, f.size));
    fold(f.offset + f.size, file_crc);
    files.emplace_back(std::move(f.name), buffer, f.offset, f.size, file_crc);
  }
  fold_framing(bytes.size());  // bytes after the last file, if any
  return files;
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
  std::vector<FileFrame> frames;
  frames.reserve(files.size());
  for (const nn::ModelFile& f : files) {
    frames.push_back({f.name, f.size(),
                      [&f](util::BinaryWriter& w) { w.raw(f.bytes()); }});
  }
  util::BinaryWriter w;
  write_frames(w, frames);
  return std::move(w).take();
}

ModelFilesPayload::Written ModelFilesPayload::write(const nn::Network& net,
                                                    std::size_t rear_cut) {
  const std::string desc = nn::save_description(net);
  const std::size_t from = rear_cut == SIZE_MAX ? 0 : rear_cut + 1;
  const std::string names[] = {
      net.name() + ".desc",
      net.name() + (rear_cut == SIZE_MAX ? ".weights" : ".rear.weights")};
  const FileFrame frames[] = {
      {names[0], desc.size(), [&](util::BinaryWriter& w) { w.raw(desc); }},
      {names[1], nn::weights_size(net, from),
       [&](util::BinaryWriter& w) { nn::save_weights(net, w, from); }}};
  util::BinaryWriter w;
  std::vector<FileSpan> spans = write_frames(w, frames);
  auto buffer = std::make_shared<const util::Bytes>(std::move(w).take());
  Written out;
  std::uint32_t crc = 0;
  out.files = view_files(buffer, std::move(spans), crc);
  out.body = util::SharedBytes(std::move(buffer), crc);
  return out;
}

ModelFilesPayload ModelFilesPayload::decode(
    std::span<const std::uint8_t> data) {
  auto buffer = std::make_shared<const util::Bytes>(data.begin(), data.end());
  ModelFilesPayload out;
  std::uint32_t crc = 0;
  out.files = view_files(buffer, locate_files(*buffer), crc);
  return out;
}

ModelFilesPayload ModelFilesPayload::decode(const net::Message& message) {
  std::vector<FileSpan> spans;
  try {
    spans = locate_files(message.payload);
  } catch (const util::DecodeError&) {
    // Bytes that do not parse were damaged in flight or sent malformed;
    // only the whole body's CRC tells which.
    verify_payload(message);
    throw;
  }
  ModelFilesPayload out;
  std::uint32_t crc = 0;
  out.files = view_files(message.payload.buffer(), std::move(spans), crc);
  if (crc != message.crc) throw PayloadCorruptError(message);
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
