// Client reply table: drives a ClientDevice against a scripted server that
// answers the first snapshot with one control reply, then forwards every
// later message to a real EdgeServer. Each (reply, supervised) cell must
// finish its inference exactly once, with the expected offloaded /
// local_fallback flags and the same result text as a fully local run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/offload.h"

namespace offload::edge {
namespace {

nn::BenchmarkModel tiny_model() {
  return {"TinyCNN", &nn::build_tiny_cnn_default, 17, 32};
}

std::string local_result_text() {
  core::RuntimeConfig config;
  config.client.offload = false;
  core::OffloadingRuntime runtime(
      config, core::make_benchmark_app(tiny_model(), false));
  return runtime.run().result_text;
}

/// A real EdgeServer behind a forwarding proxy. While `script` is set, the
/// proxy swallows the next snapshot and answers it with `script` (the app
/// name appended after a trailing ':'), then clears it.
struct ScriptedServer {
  std::unique_ptr<net::Channel> client_side;
  std::unique_ptr<net::Channel> server_side;
  std::unique_ptr<EdgeServer> server;
  std::string script;
  int scripted_replies = 0;

  ScriptedServer(sim::Simulation& sim, const std::string& name,
                 std::string reply)
      : script(std::move(reply)) {
    const net::ChannelConfig ch = core::RuntimeConfig::default_channel();
    client_side = net::Channel::make(sim, ch, "client", name);
    server_side = net::Channel::make(sim, ch, name + "-proxy", name);
    EdgeServerConfig config;
    config.ack_snapshots = true;
    server = std::make_unique<EdgeServer>(sim, server_side->b(), config);
    client_side->b().set_handler([this](const net::Message& m) {
      if (m.type == net::MessageType::kSnapshot && !script.empty()) {
        net::Message reply;
        reply.type = net::MessageType::kControl;
        reply.name = script + m.name;
        script.clear();
        ++scripted_replies;
        client_side->b().send(std::move(reply));
        return;
      }
      server_side->a().send(m);
    });
    server_side->a().set_handler(
        [this](const net::Message& m) { client_side->b().send(m); });
  }

  net::Endpoint& client_endpoint() { return client_side->a(); }
};

struct Expect {
  bool offloaded;
  bool local_fallback;
};

struct Cell {
  const char* reply;
  bool supervised;
  Expect expect;
  int server = 0;  ///< attached-server index that finished the inference
};

void run_cell(const Cell& cell, const std::string& local_text) {
  SCOPED_TRACE(std::string(cell.reply) +
               (cell.supervised ? " supervised" : " unsupervised"));
  sim::Simulation sim;
  ScriptedServer primary(sim, "server", cell.reply);
  // A clean spare: the redirect target, and a failover candidate.
  ScriptedServer spare(sim, "spare", "");

  ClientConfig config;
  config.supervisor.enabled = cell.supervised;
  int done_calls = 0;
  config.on_inference_done = [&](std::size_t, bool) { ++done_calls; };
  ClientDevice client(sim, primary.client_endpoint(), config,
                      core::make_benchmark_app(tiny_model(), false));
  client.attach_server(spare.client_endpoint());
  client.start();
  client.click_at(sim::SimTime::seconds(5));
  sim.run();

  EXPECT_EQ(primary.scripted_replies, 1);
  ASSERT_TRUE(client.finished());
  EXPECT_EQ(done_calls, 1);
  EXPECT_TRUE(client.history().empty());
  EXPECT_EQ(client.timeline().offloaded, cell.expect.offloaded);
  EXPECT_EQ(client.timeline().local_fallback, cell.expect.local_fallback);
  EXPECT_EQ(client.timeline().server_index, cell.server);
  EXPECT_EQ(spare.server->executions().size(), cell.server == 1 ? 1u : 0u);
  // A local finish never reached the real server behind the proxy.
  EXPECT_EQ(primary.server->executions().size(),
            cell.expect.offloaded && cell.server == 0 ? 1u : 0u);
  EXPECT_EQ(client.result_text(), local_text);
  // Only a supervised give-up counts (and marks) a supervisor fallback.
  EXPECT_EQ(client.supervisor_stats().local_fallbacks,
            cell.supervised && cell.expect.local_fallback ? 1 : 0);
}

constexpr Expect kLocal{false, true};
constexpr Expect kRemote{true, false};

TEST(ClientReplyTable, EveryReplyFinishesExactlyOnce) {
  const std::string local_text = local_result_text();
  ASSERT_FALSE(local_text.empty());
  const std::vector<Cell> cells = {
      {"overloaded:", false, kLocal},
      {"overloaded:", true, kLocal},
      {"expired:", false, kLocal},
      {"expired:", true, kLocal},
      // Supervised: re-presend the model, replay the snapshot.
      {"model_missing:", false, kLocal},
      {"model_missing:", true, kRemote},
      // Supervised: follow the redirect to the spare (server 1).
      {"redirect:1:", false, kLocal},
      {"redirect:1:", true, kRemote, 1},
      // Either way: recapture a full snapshot and resend it.
      {"need_full:", false, kRemote},
      {"need_full:", true, kRemote},
      // The snapshot failed to parse or run: no retry, run it here.
      {"rejected:", false, kLocal},
      {"rejected:", true, kLocal},
  };
  for (const Cell& cell : cells) run_cell(cell, local_text);
}

}  // namespace
}  // namespace offload::edge
