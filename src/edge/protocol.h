// Payload codecs for the offloading protocol messages. Wire framing (type,
// name, checksum) lives in net::Message; these encode the bodies.
//
// The model pre-send CRCs each file byte once per host: the client CRCs
// each file as it writes it into the framed kModelFiles body, and folds the
// body's CRC from those and the framing's; the server CRCs each segment of
// the received body once as it decodes it into views, checks the folded
// value against the message CRC, and hands the per-file CRCs to its model
// store's index.
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
/// endpoint calls this (or, for a kModelFiles body,
/// ModelFilesPayload::decode(message)) before decoding a payload-bearing
/// message, so corruption is rejected instead of silently accepted.
void verify_payload(const net::Message& message);

/// Body of a kModelFiles message: the pre-sent model file bundle, framed as
/// a varint file count, then per file its name and its bytes, each a
/// varint length and the bytes. Decoded files are views into the body's
/// buffer; copying the payload shares it.
struct ModelFilesPayload {
  std::vector<nn::ModelFile> files;

  /// The framed body, each file's bytes copied in after its header.
  util::Bytes encode() const;
  /// Views into a copy of `data` made once, each file CRC'd once. Throws
  /// util::DecodeError on a malformed body.
  static ModelFilesPayload decode(std::span<const std::uint8_t> data);
  /// Views into `message.payload`, verified against `message.crc` in the
  /// same single CRC pass that gives each file its CRC. Throws
  /// PayloadCorruptError when the bytes are not the ones sent, whether or
  /// not they still parse; util::DecodeError when they arrived as sent but
  /// are malformed.
  static ModelFilesPayload decode(const net::Message& message);

  /// A body written once and the files that view it.
  struct Written {
    util::SharedBytes body;  ///< carries its CRC, so sending reads nothing
    std::vector<nn::ModelFile> files;
  };
  /// The pre-send bundle of `net`, written straight into one framed body:
  /// "<net>.desc" plus "<net>.weights", or "<net>.rear.weights" (the nodes
  /// after `rear_cut`) unless `rear_cut` is SIZE_MAX. Once the whole body
  /// is written, one pass over it CRCs each file and each framing segment;
  /// the body's CRC is folded from those. Encodes the same bytes as
  /// encode() of the same files.
  static Written write(const nn::Network& net,
                       std::size_t rear_cut = SIZE_MAX);
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
