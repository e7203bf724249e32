#include "src/net/message.h"

namespace offload::net {

const char* message_type_name(MessageType t) {
  switch (t) {
    case MessageType::kModelFiles:
      return "ModelFiles";
    case MessageType::kAck:
      return "Ack";
    case MessageType::kSnapshot:
      return "Snapshot";
    case MessageType::kResultSnapshot:
      return "ResultSnapshot";
    case MessageType::kVmOverlay:
      return "VmOverlay";
    case MessageType::kControl:
      return "Control";
    case MessageType::kModelOffer:
      return "ModelOffer";
  }
  return "?";
}

}  // namespace offload::net
