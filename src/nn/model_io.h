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
#include <string>
#include <utility>
#include <vector>

#include "src/nn/network.h"
#include "src/util/bytes.h"

namespace offload::nn {

/// A named file as moved by the offloading protocol. Its bytes are one
/// immutable buffer: copying a ModelFile shares the buffer, never the bytes.
struct ModelFile {
  ModelFile(std::string name, util::Bytes bytes)
      : ModelFile(std::move(name),
                  std::make_shared<const util::Bytes>(std::move(bytes))) {}
  ModelFile(std::string name, std::shared_ptr<const util::Bytes> content)
      : name(std::move(name)), content(std::move(content)) {}

  std::string name;
  std::shared_ptr<const util::Bytes> content;

  std::span<const std::uint8_t> bytes() const { return *content; }
  std::uint64_t size() const { return content->size(); }
};

/// Serialize the layer graph (no parameters) as a text description.
std::string save_description(const Network& net);

/// Rebuild a Network (uninitialized parameters) from a description.
/// Throws util::DecodeError on malformed input.
std::unique_ptr<Network> parse_description(const std::string& text);

/// Serialize parameters of nodes [begin, end) (default: all).
util::Bytes save_weights(const Network& net, std::size_t begin = 0,
                         std::size_t end = SIZE_MAX);

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
