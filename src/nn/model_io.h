// Model file formats. A model ships as two files, mirroring Caffe's
// deploy.prototxt + .caffemodel pair that Caffe.js loads:
//  - "<name>.desc"    — text description of the layer graph,
//  - "<name>.weights" — binary fp32 parameters (the bulk of the bytes).
// These are the files the client pre-sends to the edge server
// (Section III.B.1). For partial inference the weights can be split at a
// cut point into front/rear files so the front part is never uploaded
// (Section III.B.2's defense against feature inversion).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/network.h"
#include "src/util/bytes.h"

namespace offload::nn {

/// A named file as moved by the offloading protocol: a read-only view of
/// bytes in one shared, immutable buffer, plus the CRC-32 of those bytes,
/// taken once where they were made. Copying a ModelFile shares the buffer,
/// never the bytes. The client's pre-send files are views into the framed
/// kModelFiles body it sends (edge::ModelFilesPayload::write), a server's
/// are views into the payload of the message that carried them, so no
/// file byte is copied between save and either host's model store.
class ModelFile {
 public:
  /// A file owning `bytes`, CRC'd here in one pass.
  ModelFile(std::string name, util::Bytes bytes);
  /// The `size` bytes at `offset` of `buffer`, whose CRC-32 is `crc`. The
  /// file keeps the whole buffer alive: it holds an aliasing shared_ptr
  /// that points at its first byte and owns `buffer`.
  ModelFile(std::string name, const std::shared_ptr<const util::Bytes>& buffer,
            std::size_t offset, std::size_t size, std::uint32_t crc);

  std::string name;

  std::span<const std::uint8_t> bytes() const { return {data_.get(), size_}; }
  std::uint64_t size() const { return size_; }
  std::uint32_t crc() const { return crc_; }
  /// True when both files view the same bytes of the same buffer.
  bool same_bytes(const ModelFile& other) const {
    return data_ == other.data_ && size_ == other.size_;
  }

 private:
  std::shared_ptr<const std::uint8_t> data_;
  std::size_t size_ = 0;
  std::uint32_t crc_ = 0;
};

/// Serialize the layer graph (no parameters) as a text description.
std::string save_description(const Network& net);

/// Rebuild a Network (all parameters zero) from a description.
/// Throws util::DecodeError on malformed input.
std::unique_ptr<Network> parse_description(const std::string& text);

/// Serialize parameters of nodes [begin, end) (default: all).
util::Bytes save_weights(const Network& net, std::size_t begin = 0,
                         std::size_t end = SIZE_MAX);
/// The same file appended to `w`: weights_size(net, begin, end) bytes, each
/// parameter block copied straight from its layer.
void save_weights(const Network& net, util::BinaryWriter& w,
                  std::size_t begin = 0, std::size_t end = SIZE_MAX);

/// Exact byte count of save_weights(net, begin, end), without encoding.
std::uint64_t weights_size(const Network& net, std::size_t begin = 0,
                           std::size_t end = SIZE_MAX);

/// Load parameters into nodes [begin, end). Layer names and parameter
/// counts must match; throws util::DecodeError otherwise.
void load_weights(Network& net, std::span<const std::uint8_t> blob,
                  std::size_t begin = 0, std::size_t end = SIZE_MAX);

/// The full pre-send bundle: description + all weights.
std::vector<ModelFile> model_files(const Network& net);

/// Privacy-preserving bundle: description + only the rear weights
/// (parameters of nodes strictly after `cut`). The front stays client-side.
std::vector<ModelFile> model_files_rear_only(const Network& net,
                                             std::size_t cut);

/// Total bytes across files.
std::uint64_t total_size(const std::vector<ModelFile>& files);

}  // namespace offload::nn
