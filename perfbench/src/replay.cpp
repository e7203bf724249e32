#include "src/replay.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "src/edge/browser_host.h"
#include "src/edge/model_store.h"
#include "src/edge/protocol.h"
#include "src/jsvm/snapshot.h"
#include "src/nn/model_io.h"
#include "src/util/crc32.h"

namespace perfbench {
namespace {

using namespace offload;

/// Encode, checksum and decode one message body, as sender and receiver
/// do. Returns the decoded payload.
template <class Payload>
Payload wire(const Payload& payload, Tracer& t) {
  util::Bytes bytes =
      t.span("protocol.encode", [&] { return payload.encode(); });
  t.span("crc", [&] { return util::crc32(std::span(bytes)); });
  t.add("crc.passes", 1);
  t.add("crc.bytes", static_cast<double>(bytes.size()));
  return t.span("protocol.decode",
                [&] { return Payload::decode(std::span(bytes)); });
}

/// Capture `interp`'s realm inside a "jsvm.capture" span.
jsvm::SnapshotResult capture(jsvm::Interpreter& interp, Tracer& t) {
  jsvm::SnapshotResult snap =
      t.span("jsvm.capture", [&] { return jsvm::capture_snapshot(interp); });
  t.add("jsvm.capture_bytes", static_cast<double>(snap.stats.total_bytes));
  return snap;
}

/// Restore `program` on `host` and run the re-dispatched events.
/// `run_span` names the event run (the DNN forward on the server).
void restore_and_run(edge::BrowserHost& host, const std::string& program,
                     const std::string& run_span, Tracer& t) {
  t.span("jsvm.restore",
         [&] { jsvm::restore_snapshot(host.interp(), program); });
  t.add("jsvm.restore_bytes", static_cast<double>(program.size()));
  t.span(run_span, [&] { return host.interp().run_events(); });
}

}  // namespace

void replay_offload(const edge::AppBundle& app, std::size_t cut,
                    const std::string& offload_event, Tracer& t,
                    Calibration& calib) {
  const nn::Network& net = *app.network;
  const bool partial = cut != SIZE_MAX;
  const double capture0 = t.total_ms("jsvm.capture");
  const double restore0 = t.total_ms("jsvm.restore");
  const double dnn0 = t.total_ms("nn.forward") + t.total_ms("nn.front") +
                      t.total_ms("nn.rear");

  // Client: its own model store, and the pre-send bundle (rear weights
  // only under partial inference).
  auto save = [&](auto&& fn) {
    std::vector<nn::ModelFile> files = t.span("model_io.save", fn);
    t.add("model_io.bytes", static_cast<double>(nn::total_size(files)));
    return files;
  };
  std::vector<nn::ModelFile> local_files =
      save([&] { return nn::model_files(net); });
  edge::ModelFilesPayload presend;
  if (partial) {
    presend.files = save([&] { return nn::model_files_rear_only(net, cut); });
  } else {
    presend.files = local_files;
  }
  auto client_store = std::make_shared<edge::ModelStore>();
  client_store->store_files(std::move(local_files));

  // Pre-send: the server decodes the bundle into its store.
  edge::ModelFilesPayload received = wire(presend, t);
  auto server_store = std::make_shared<edge::ModelStore>();
  server_store->store_files(std::move(received.files));
  t.span("model_store.instantiate", [&] {
    client_store->instantiate(app.name);
    server_store->instantiate(app.name);
  });

  // Client: start the app, click, run up to the offload point.
  edge::BrowserHost client(nn::DeviceProfile::embedded_client(),
                           client_store);
  client.add_image("input", app.input_image);
  if (partial) client.set_partition_cut(app.name, cut);
  t.span("jsvm.eval", [&] {
    client.interp().eval_program(app.source, app.name);
    return client.interp().run_events();
  });
  jsvm::Interpreter& page = client.interp();
  page.enqueue_event(page.document().get_element_by_id(app.click_target),
                     "click", jsvm::Undefined{});
  page.offload_hook = [&](const jsvm::PendingEvent& ev) {
    return ev.type == offload_event;
  };
  t.span(partial ? "nn.front" : "jsvm.eval", [&] { return page.run_events(); });
  if (!page.take_pending_offload()) {
    throw std::runtime_error("replay: " + app.name +
                             " never reached its offload point");
  }
  jsvm::SnapshotResult snap = capture(page, t);
  const jsvm::SnapshotStats& s = snap.stats;
  t.add("jsvm.heap_objects",
        static_cast<double>(s.objects + s.arrays + s.typed_arrays +
                            s.functions + s.environments));

  // Server: restore on a fresh page, run the handler, capture the result.
  edge::SnapshotPayload up;
  up.cut = partial ? cut : UINT64_MAX;
  up.program = std::move(snap.program);
  edge::SnapshotPayload at_server = wire(up, t);
  edge::BrowserHost server(nn::DeviceProfile::edge_server(), server_store);
  if (partial) server.set_partition_cut(app.name, cut);
  restore_and_run(server, at_server.program, partial ? "nn.rear" : "nn.forward",
                  t);
  t.add("nn.flop", static_cast<double>(net.analyze().total_flops));
  jsvm::SnapshotResult result = capture(server.interp(), t);

  // Client: adopt the result snapshot on a fresh page.
  edge::SnapshotPayload down;
  down.cut = up.cut;
  down.program = std::move(result.program);
  edge::SnapshotPayload at_client = wire(down, t);
  client.reset_realm();
  if (partial) client.set_partition_cut(app.name, cut);
  restore_and_run(client, at_client.program, "jsvm.eval", t);

  calib.capture_host_ms += t.total_ms("jsvm.capture") - capture0;
  calib.restore_host_ms += t.total_ms("jsvm.restore") - restore0;
  calib.dnn_host_ms += t.total_ms("nn.forward") + t.total_ms("nn.front") +
                       t.total_ms("nn.rear") - dnn0;
}

std::string describe(const core::RunResult& r) {
  std::string out = r.result_text + "|" + exact(r.inference_seconds) + "|" +
                    exact(r.model_upload_seconds) + "|" +
                    std::to_string(r.timeline.snapshot_bytes) + "|" +
                    (r.offloaded ? "offloaded" : "local");
  if (r.server_record) {
    const edge::ServerExecutionRecord& s = *r.server_record;
    out += "|" + exact(s.restore_s) + "|" + exact(s.execute_s) + "|" +
           exact(s.capture_s) + "|" + exact(s.queue_wait_s) + "|" +
           std::to_string(s.snapshot_in_bytes) + "|" +
           std::to_string(s.snapshot_out_bytes) + "|" +
           std::to_string(s.result_stats.objects);
  }
  return out;
}

void account(const core::RunResult& r, Calibration& calib, Tracer& t) {
  const edge::ClientTimeline& tl = r.timeline;
  calib.capture_model_s += tl.capture_s;
  calib.restore_model_s += tl.restore_s;
  calib.dnn_model_s += tl.client_exec_s;
  std::uint64_t wire = tl.model_upload_bytes + tl.snapshot_bytes;
  if (r.server_record) {
    calib.capture_model_s += r.server_record->capture_s;
    calib.restore_model_s += r.server_record->restore_s;
    calib.dnn_model_s += r.server_record->execute_s;
    wire += r.server_record->snapshot_out_bytes;
  }
  t.add("net.wire_bytes", static_cast<double>(wire));
}

}  // namespace perfbench
