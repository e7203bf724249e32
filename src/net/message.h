// Wire messages exchanged by the offloading protocol (Section III.B):
// model file uploads, the pre-send ACK, snapshots in both directions, and
// VM overlays for on-demand installation.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/span.h"
#include "src/util/bytes.h"

namespace offload::net {

enum class MessageType : std::uint8_t {
  kModelFiles = 1,     ///< Client → server: pre-send of NN model files.
  kAck = 2,            ///< Server → client: model stored, ready.
  kSnapshot = 3,       ///< Client → server: execution-state snapshot.
  kResultSnapshot = 4, ///< Server → client: snapshot with the result state.
  kVmOverlay = 5,      ///< Client → server: on-demand system install.
  kControl = 6,        ///< Small control/handshake messages.
  kModelOffer = 7,     ///< Client → server: per-file digests of a pre-send,
                       ///< so a server holding the blobs can skip the body.
};

const char* message_type_name(MessageType t);

/// A protocol message. `payload` carries the serialized body; `wire_size()`
/// is what the link model charges for, including a small framing header.
/// The payload is one immutable shared buffer, so copying a message (a
/// duplicate, a retransmit, a stalled delivery, a relay) shares the bytes;
/// only a corruption fault makes a private, damaged copy.
struct Message {
  MessageType type = MessageType::kControl;
  std::string name;      ///< e.g. model file name, app id.
  util::SharedBytes payload;
  std::uint64_t id = 0;  ///< Sender-assigned sequence id.
  /// CRC32 of `payload`, stamped by Endpoint::send: the CRC the payload
  /// buffer carries when its maker took one (a kModelFiles body folds it
  /// from its segments' CRCs), else one pass over the bytes. Receivers
  /// verify it (edge::verify_payload, ModelFilesPayload::decode) so
  /// in-flight corruption is caught rather than silently decoded.
  std::uint32_t crc = 0;
  /// Trace coordinates for the obs layer. Out-of-band: excluded from
  /// wire_size(), so tracing never perturbs simulated timings.
  obs::TraceContext ctx;

  /// Framing overhead the link model charges per message (type, id, name
  /// and payload lengths, checksum). Messages move through the simulation
  /// as structs; no frame is ever serialized.
  static constexpr std::uint64_t kHeaderBytes = 32;

  std::uint64_t wire_size() const {
    return kHeaderBytes + name.size() + payload.size();
  }
};

}  // namespace offload::net
