// Edge-server contention under many clients: N clients offload the AgeNet
// app to one server at the same instant; queueing on the server's compute
// stretches inference time ~linearly.
//
// Results are also written as BENCH_multiclient.json for cross-PR
// tracking.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/json_writer.h"
#include "src/core/offload.h"
#include "src/obs/obs.h"
#include "src/util/stats.h"

namespace {

using namespace offload;

struct FleetResult {
  double mean_s = 0;
  double worst_s = 0;
  double mean_queue_wait_s = 0;
};

FleetResult run_fleet(int n_clients) {
  sim::Simulation sim;
  nn::BenchmarkModel model{"AgeNet", &nn::build_agenet, 11, 227};

  // One shared metrics registry instead of per-bench accumulators: every
  // client reports into client.inference_ms, the server's scheduler into
  // server.queue_wait_ms, and the bench just reads them back (histogram
  // sum/count/max are exact, so means and maxima lose nothing).
  obs::Obs obs;

  // One channel per client, one server attached to all of them.
  std::vector<std::unique_ptr<net::Channel>> channels;
  std::unique_ptr<edge::EdgeServer> server;
  std::vector<std::unique_ptr<edge::ClientDevice>> clients;

  edge::EdgeServerConfig server_config;
  server_config.keep_sessions = false;  // all clients run the same app id
  server_config.obs = &obs;

  for (int i = 0; i < n_clients; ++i) {
    net::ChannelConfig ch;
    ch.a_to_b.bandwidth_bps = 30e6;
    ch.b_to_a.bandwidth_bps = 30e6;
    channels.push_back(net::Channel::make(sim, ch, "client" + std::to_string(i),
                                          "edge", 100 + i));
    if (i == 0) {
      server = std::make_unique<edge::EdgeServer>(sim, channels[0]->b(),
                                                  server_config);
    } else {
      server->attach(channels[static_cast<std::size_t>(i)]->b());
    }
  }

  edge::AppBundle prototype = core::make_benchmark_app(model, false);
  sim::SimTime click =
      core::after_ack_click_time(*prototype.network, false, 0, 30e6) +
      sim::SimTime::seconds(static_cast<double>(n_clients));
  for (int i = 0; i < n_clients; ++i) {
    edge::ClientConfig config;
    config.obs = &obs;
    clients.push_back(std::make_unique<edge::ClientDevice>(
        sim, channels[static_cast<std::size_t>(i)]->a(), config,
        core::make_benchmark_app(model, false)));
    clients.back()->start();
    // Everyone clicks at the same instant: worst-case contention.
    clients.back()->click_at(click);
  }
  sim.run();

  // Finished clients observed client.inference_ms once each; every
  // executed snapshot observed server.queue_wait_ms at completion.
  FleetResult out;
  if (const obs::Histogram* h = obs.metrics.histogram("client.inference_ms")) {
    out.mean_s = h->mean() / 1e3;
    out.worst_s = h->max / 1e3;
  }
  if (const obs::Histogram* h =
          obs.metrics.histogram("server.queue_wait_ms")) {
    out.mean_queue_wait_s = h->mean() / 1e3;
  }
  return out;
}

}  // namespace

int main() {
  std::vector<offload::bench::JsonObject> json;

  offload::bench::print_banner(
      "Edge-server contention — N clients offloading AgeNet simultaneously",
      "one client sees the Fig. 6 after-ACK time; as clients pile up, "
      "server compute queues FIFO and tail latency grows ~linearly");

  offload::util::TextTable table;
  table.header({"clients", "mean inference (s)", "worst inference (s)",
                "mean server queue wait (s)"});
  for (int n : {1, 2, 4, 8}) {
    FleetResult r = run_fleet(n);
    table.row({std::to_string(n), offload::bench::fmt_s(r.mean_s),
               offload::bench::fmt_s(r.worst_s),
               offload::bench::fmt_s(r.mean_queue_wait_s)});
    json.push_back(offload::bench::JsonObject()
                       .set("experiment", "contention")
                       .set("clients", n)
                       .set("mean_inference_s", r.mean_s)
                       .set("worst_inference_s", r.worst_s)
                       .set("mean_queue_wait_s", r.mean_queue_wait_s));
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nNote: requests serialize on the server's compute (FIFO). The "
      "uplinks are independent (each client has its own Wi-Fi path), so "
      "the growth isolates server-side contention.\n\n");

  return offload::bench::write_json_array("BENCH_multiclient.json", json)
             ? 0
             : 1;
}
