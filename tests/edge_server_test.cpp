// Focused unit tests for EdgeServer: message handling, ACK timing, session
// lifecycle, and execution accounting — exercised through a raw channel
// (no ClientDevice), so server behaviour is pinned independently.
#include <gtest/gtest.h>

#include "src/core/app.h"
#include "src/edge/edge_server.h"
#include "src/jsvm/snapshot.h"
#include "src/nn/models.h"

namespace offload::edge {
namespace {

struct Harness {
  sim::Simulation sim;
  std::unique_ptr<net::Channel> channel;
  std::unique_ptr<EdgeServer> server;
  std::vector<net::Message> client_inbox;

  explicit Harness(EdgeServerConfig config = {}) {
    net::ChannelConfig ch;
    ch.a_to_b.latency = sim::SimTime::millis(1);
    ch.b_to_a.latency = sim::SimTime::millis(1);
    channel = net::Channel::make(sim, ch);
    server = std::make_unique<EdgeServer>(sim, channel->b(), config);
    channel->a().set_handler(
        [this](const net::Message& m) { client_inbox.push_back(m); });
  }

  void send_model(const nn::Network& net) {
    ModelFilesPayload payload;
    payload.files = nn::model_files(net);
    net::Message msg;
    msg.type = net::MessageType::kModelFiles;
    msg.name = net.name();
    msg.payload = payload.encode();
    channel->a().send(std::move(msg));
  }

  /// Send a snapshot of a realm that re-runs `source` via a pending event.
  void send_snapshot(const std::string& app, const std::string& source) {
    send_program(app, capture(source));
  }

  /// Send `program` as the snapshot of `app`, as is.
  void send_program(const std::string& app, std::string program) {
    SnapshotPayload payload;
    payload.program = std::move(program);
    send_payload(app, payload.encode());
  }

  void send_payload(const std::string& app, util::Bytes payload) {
    net::Message msg;
    msg.type = net::MessageType::kSnapshot;
    msg.name = app;
    msg.payload = std::move(payload);
    channel->a().send(std::move(msg));
  }

  static std::string capture(const std::string& source) {
    jsvm::Interpreter scratch;
    scratch.eval_program(source);
    return jsvm::capture_snapshot(scratch).program;
  }
};

TEST(EdgeServerTest, AckArrivesAfterStoreTime) {
  EdgeServerConfig config;
  config.store_Bps = 1e6;  // slow disk: visible store delay
  Harness h(config);
  auto net = nn::build_tiny_cnn(17);
  h.send_model(*net);
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].type, net::MessageType::kAck);
  // Store time for ~0.5 MB at 1 MB/s ≈ 0.5 s, plus transfer time.
  double ack_at = h.sim.now().to_seconds();
  double model_bytes = static_cast<double>(net->param_bytes());
  EXPECT_GT(ack_at, model_bytes / 1e6 * 0.9);
}

TEST(EdgeServerTest, StoresAllModelFiles) {
  Harness h;
  auto net = nn::build_tiny_cnn(17);
  h.send_model(*net);
  h.sim.run();
  EXPECT_TRUE(h.server->model_store().can_instantiate("tinycnn"));
  EXPECT_EQ(h.server->model_store().file_count(), 2u);
  EXPECT_EQ(h.server->stats().models_stored, 1);
}

TEST(EdgeServerTest, RefusesEverythingUntilInstalled) {
  EdgeServerConfig config;
  config.offloading_system_installed = false;
  Harness h(config);
  auto net = nn::build_tiny_cnn(17);
  h.send_model(*net);
  h.send_snapshot("tinycnn", "var x = 1;");
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 2u);
  for (const auto& m : h.client_inbox) {
    EXPECT_EQ(m.type, net::MessageType::kControl);
    EXPECT_EQ(m.name.rfind("not_installed", 0), 0u);
  }
  EXPECT_EQ(h.server->stats().refused, 2);
  EXPECT_FALSE(h.server->model_store().can_instantiate("tinycnn"));
}

TEST(EdgeServerTest, ExecutesSnapshotAndReturnsResult) {
  Harness h;
  h.send_snapshot(
      "plain",
      "var done = false; var b = document.createElement('b'); "
      "document.body.appendChild(b); "
      "b.addEventListener('go', function() { done = true; }); "
      "b.dispatchEvent('go');");
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].type, net::MessageType::kResultSnapshot);
  // The returned snapshot reflects the executed handler.
  SnapshotPayload result =
      SnapshotPayload::decode(std::span(h.client_inbox[0].payload));
  jsvm::Interpreter check;
  jsvm::restore_snapshot(check, result.program);
  EXPECT_EQ(check.eval_program("done;"), jsvm::Value(true));
  ASSERT_EQ(h.server->executions().size(), 1u);
  EXPECT_GT(h.server->executions()[0].restore_s, 0);
}

TEST(EdgeServerTest, SessionKeptPerAppNotLeakedPerOffload) {
  Harness h;
  for (int i = 0; i < 3; ++i) {
    h.send_snapshot("appA", "var x = " + std::to_string(i) + ";");
    h.sim.run();
  }
  h.send_snapshot("appB", "var y = 9;");
  h.sim.run();
  EXPECT_EQ(h.server->stats().snapshots_executed, 4);
  // One live session realm per app; repeated offloads of the same app
  // replace, not accumulate. (Indirect check: last_browser is the appB
  // realm and is live.)
  ASSERT_NE(h.server->last_browser(), nullptr);
  EXPECT_EQ(jsvm::to_number(
                h.server->last_browser()->interp().eval_program("y;")),
            9);
}

TEST(EdgeServerTest, ReplacedRealmReleasesItsNetwork) {
  Harness h;
  auto net = nn::build_tiny_cnn(17);
  // The global scope holds the model and a function closing over the
  // global scope: a cycle that keeps the realm alive unless it is torn
  // down.
  const std::string program =
      "var m = __loadModel(\"tinycnn\"); "
      "function layers() { return m.numLayers; } var n = layers();";
  h.send_model(*net);
  h.sim.run();
  h.send_program("tinycnn", program);
  h.sim.run();
  std::weak_ptr<nn::Network> first = h.server->model_store().instantiate(
      "tinycnn");
  // A re-sent model drops the store's cached network; the second offload
  // replaces the first session realm.
  h.send_model(*net);
  h.sim.run();
  h.send_program("tinycnn", program);
  h.sim.run();
  EXPECT_EQ(h.server->stats().snapshots_executed, 2);
  std::weak_ptr<nn::Network> second = h.server->model_store().instantiate(
      "tinycnn");
  EXPECT_TRUE(first.expired());
  EXPECT_FALSE(second.expired());
  EXPECT_EQ(jsvm::to_number(
                h.server->last_browser()->interp().eval_program("n;")),
            static_cast<double>(net->size()));
}

TEST(EdgeServerTest, FailedSnapshotsRejectedThenServedBitExact) {
  auto net = nn::build_tiny_cnn(17);
  const std::string good = Harness::capture(
      "var x = 2; var b = document.createElement('b'); "
      "document.body.appendChild(b); "
      "b.addEventListener('go', function() { x = x * 21; }); "
      "b.dispatchEvent('go');");
  auto serve_good = [&](Harness& h) {
    h.send_program("tinycnn", good);
    h.sim.run();
    EXPECT_EQ(h.client_inbox.back().type, net::MessageType::kResultSnapshot);
    return h.client_inbox.back().payload;
  };
  Harness fresh;
  fresh.send_model(*net);
  fresh.sim.run();
  const util::Bytes expected = serve_good(fresh);

  Harness h;
  h.send_model(*net);
  h.sim.run();
  h.client_inbox.clear();
  // A payload cut short does not decode; a program cut in half does not
  // parse; a well-formed one whose script fails throws a JsError; a
  // partition cut past the model's last node is invalid. The model is
  // stored, so none of them is a missing model.
  SnapshotPayload whole;
  whole.program = good;
  util::Bytes cut = whole.encode();
  cut.resize(cut.size() / 2);
  h.send_payload("tinycnn", std::move(cut));
  h.sim.run();
  h.send_program("tinycnn", good.substr(0, good.size() / 2));
  h.sim.run();
  h.send_program("tinycnn", "var y = undefinedName + 1;");
  h.sim.run();
  SnapshotPayload past_end = whole;
  past_end.cut = net->size();
  h.send_payload("tinycnn", past_end.encode());
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 4u);
  for (const auto& m : h.client_inbox) {
    EXPECT_EQ(m.type, net::MessageType::kControl);
    EXPECT_EQ(m.name, "rejected:tinycnn");
  }
  EXPECT_EQ(h.server->stats().snapshots_rejected, 4);
  EXPECT_EQ(h.server->stats().snapshots_executed, 0);

  EXPECT_EQ(serve_good(h), expected);
  EXPECT_EQ(h.client_inbox.size(), 5u);
  EXPECT_EQ(h.server->stats().snapshots_executed, 1);
}

TEST(EdgeServerTest, MalformedPreSentWeightsRejectTheSnapshot) {
  // The weights file carries a byte after its last layer. Both ways a
  // snapshot instantiates the model, checking its partition cut and
  // loadModel(), end in one rejection each.
  auto net = nn::build_tiny_cnn(17);
  std::vector<nn::ModelFile> files = nn::model_files(*net);
  util::Bytes weights = *files[1].content;
  weights.push_back(0);
  files[1] = nn::ModelFile(files[1].name, std::move(weights));
  Harness h;
  ModelFilesPayload upload;
  upload.files = std::move(files);
  net::Message msg;
  msg.type = net::MessageType::kModelFiles;
  msg.name = net->name();
  msg.payload = upload.encode();
  h.channel->a().send(std::move(msg));
  h.sim.run();
  h.client_inbox.clear();

  SnapshotPayload with_cut;
  with_cut.program = Harness::capture("var x = 1;");
  with_cut.cut = 2;
  h.send_payload("tinycnn", with_cut.encode());
  h.sim.run();
  h.send_program("tinycnn", "var m = loadModel('tinycnn');");
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 2u);
  for (const auto& m : h.client_inbox) {
    EXPECT_EQ(m.type, net::MessageType::kControl);
    EXPECT_EQ(m.name, "rejected:tinycnn");
  }
  EXPECT_EQ(h.server->stats().snapshots_rejected, 2);
}

TEST(EdgeServerTest, DifferentialAgainstUnknownBaselineRefused) {
  Harness h;
  SnapshotPayload payload;
  payload.differential = true;
  payload.base_version = 0xdeadbeef;
  payload.program = "(function() { x = 1; })();";
  net::Message msg;
  msg.type = net::MessageType::kSnapshot;
  msg.name = "ghost";
  msg.payload = payload.encode();
  h.channel->a().send(std::move(msg));
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].type, net::MessageType::kControl);
  EXPECT_EQ(h.client_inbox[0].name.rfind("need_full", 0), 0u);
  EXPECT_EQ(h.server->stats().diff_version_misses, 1);
  EXPECT_EQ(h.server->stats().snapshots_executed, 0);
}

TEST(EdgeServerTest, SessionsDisabledMeansNoVersionInReply) {
  EdgeServerConfig config;
  config.keep_sessions = false;
  Harness h(config);
  h.send_snapshot("appA", "var x = 1;");
  h.sim.run();
  ASSERT_EQ(h.client_inbox.size(), 1u);
  SnapshotPayload result =
      SnapshotPayload::decode(std::span(h.client_inbox[0].payload));
  EXPECT_EQ(result.base_version, 0u);
}

TEST(EdgeServerTest, OverlayInstallsAndExtractsModels) {
  EdgeServerConfig config;
  config.offloading_system_installed = false;
  Harness h(config);

  auto net = nn::build_tiny_cnn(17);
  vmsynth::VmImage base = vmsynth::make_base_image();
  std::vector<std::pair<std::string, util::Bytes>> model_files;
  for (auto& f : nn::model_files(*net)) {
    model_files.emplace_back(f.name, *f.content);
  }
  vmsynth::SystemBundleSizes sizes;
  sizes.browser_bytes = 200'000;
  sizes.libraries_bytes = 200'000;
  sizes.server_program_bytes = 10'000;
  vmsynth::VmOverlay overlay = vmsynth::create_overlay(
      base, vmsynth::make_customized_image(base, sizes, model_files));

  net::Message msg;
  msg.type = net::MessageType::kVmOverlay;
  msg.name = "tinycnn";
  msg.payload = std::move(overlay.payload);
  h.channel->a().send(std::move(msg));
  h.sim.run();

  EXPECT_TRUE(h.server->installed());
  EXPECT_EQ(h.server->stats().overlays_installed, 1);
  EXPECT_TRUE(h.server->model_store().can_instantiate("tinycnn"));
  ASSERT_EQ(h.client_inbox.size(), 1u);
  EXPECT_EQ(h.client_inbox[0].type, net::MessageType::kAck);
  EXPECT_EQ(h.client_inbox[0].name.rfind("installed:", 0), 0u);
  EXPECT_GT(h.server->stats().vm_synthesis_compute_s, 0);
}

TEST(EdgeServerTest, ConcurrentSnapshotsQueueOnCompute) {
  // Two clients offload at the same instant: the second execution waits
  // for the first (shared server compute), and both complete correctly.
  sim::Simulation sim;
  net::ChannelConfig ch;
  auto c1 = net::Channel::make(sim, ch, "c1", "edge", 1);
  auto c2 = net::Channel::make(sim, ch, "c2", "edge", 2);
  EdgeServerConfig config;
  config.keep_sessions = false;
  EdgeServer server(sim, c1->b(), config);
  server.attach(c2->b());

  nn::BenchmarkModel tiny{"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
  ClientConfig client_config;
  ClientDevice client1(sim, c1->a(), client_config,
                       core::make_benchmark_app(tiny, false));
  ClientDevice client2(sim, c2->a(), client_config,
                       core::make_benchmark_app(tiny, false));
  client1.start();
  client2.start();
  sim::SimTime click = sim::SimTime::seconds(5);
  client1.click_at(click);
  client2.click_at(click);
  sim.run();

  ASSERT_TRUE(client1.finished());
  ASSERT_TRUE(client2.finished());
  EXPECT_EQ(client1.result_text(), client2.result_text());
  ASSERT_EQ(server.executions().size(), 2u);
  EXPECT_EQ(server.executions()[0].queue_wait_s, 0.0);
  EXPECT_GT(server.executions()[1].queue_wait_s, 0.0);
  // The waiting client's inference is slower by about the first's busy
  // time.
  EXPECT_GT(std::max(client1.timeline().inference_seconds(),
                     client2.timeline().inference_seconds()),
            std::min(client1.timeline().inference_seconds(),
                     client2.timeline().inference_seconds()));
}

}  // namespace
}  // namespace offload::edge
