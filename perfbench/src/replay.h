// Stage-by-stage replay of one offloaded inference through the layers'
// public functions, for the traced run. It walks the path the client and
// the edge server take — model files, payload codec, CRC, model store,
// app evaluation, snapshot capture/restore, DNN forwards — calling each
// stage once, inside a span named after its layer. Work the real op does
// more than once (repeat CRC passes, repeat model_files calls) is what
// core.uncovered_ms is left to show.
#pragma once

#include <cstddef>
#include <string>

#include "src/core/runtime.h"
#include "src/edge/client_device.h"
#include "src/tracer.h"
#include "src/workload.h"

namespace perfbench {

/// Replay the offload of `app`'s `offload_event` handler. `cut` is the
/// partition point for partial inference (only the rear weights are
/// pre-sent), SIZE_MAX for full inference. Fills the host-ms side of
/// `calib`; throws std::runtime_error if the app never reaches its
/// offload point.
void replay_offload(const offload::edge::AppBundle& app, std::size_t cut,
                    const std::string& offload_event, Tracer& tracer,
                    Calibration& calib);

/// The checked outputs of one offloaded inference as canonical text:
/// result, simulated latency and upload time, snapshot bytes and the
/// server's execution record.
std::string describe(const offload::core::RunResult& r);

/// Add what the program modeled for one op: the calibration denominators
/// (capture, restore and DNN seconds from the client timeline and server
/// record) and the bytes it put on the wire.
void account(const offload::core::RunResult& r, Calibration& calib,
             Tracer& tracer);

}  // namespace perfbench
