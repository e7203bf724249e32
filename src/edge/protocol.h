// Payload codecs for the offloading protocol messages. Wire framing (type,
// name, checksum) lives in net::Message; these encode the bodies.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/nn/model_io.h"

namespace offload::edge {

/// A received message failed its payload CRC check: the bytes were damaged
/// in flight. Typed so the offload supervisor can treat it as a retryable
/// delivery fault rather than a protocol bug.
class PayloadCorruptError : public std::runtime_error {
 public:
  explicit PayloadCorruptError(const net::Message& message);
};

/// True if `message.payload` still matches the CRC stamped at send time.
bool payload_intact(const net::Message& message);

/// Throws PayloadCorruptError unless payload_intact(message). Every edge
/// endpoint calls this before decoding a payload-bearing message, so
/// corruption is rejected instead of silently accepted.
void verify_payload(const net::Message& message);

/// Body of a kModelFiles message: the pre-sent model file bundle. Decoding
/// makes one buffer per file; copying the payload shares the buffers.
struct ModelFilesPayload {
  std::vector<nn::ModelFile> files;

  util::Bytes encode() const;
  static ModelFilesPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a kModelOffer message: per-file content digests of a pre-send.
/// A server whose model store already indexes content with the same digest
/// (uploaded by any client since its last crash) skips that file's body
/// entirely — the Nth client's warmup shrinks from the model size to
/// digest size. The sender takes the digests from its own store.
struct ModelOfferPayload {
  struct Entry {
    std::string name;           ///< model file name, e.g. "tinycnn.weights"
    std::uint64_t digest = 0;   ///< fnv1a of the file content
    std::uint64_t bytes = 0;    ///< content size (for bytes-saved stats)
  };
  std::vector<Entry> files;

  util::Bytes encode() const;
  static ModelOfferPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a "send_files:" control reply: the subset of offered files the
/// server does not hold and needs uploaded in full.
struct FileListPayload {
  std::vector<std::string> names;

  util::Bytes encode() const;
  static FileListPayload decode(std::span<const std::uint8_t> data);
};

/// Body of a kSnapshot / kResultSnapshot message: the snapshot program
/// plus the partition point (SIZE_MAX when full inference), which the
/// serving browser needs to run inference_rear on the right layer range.
/// For repeat offloads the program may be a *differential* snapshot that
/// applies to the session state the server kept — `base_version` names the
/// common baseline (fingerprint version) it patches.
struct SnapshotPayload {
  std::uint64_t cut = UINT64_MAX;
  bool differential = false;
  std::uint64_t base_version = 0;
  std::string program;

  util::Bytes encode() const;
  static SnapshotPayload decode(std::span<const std::uint8_t> data);
};

}  // namespace offload::edge
