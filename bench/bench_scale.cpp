// Capacity planning at population scale — 10^3 → 10^6 simulated clients
// against fleet size and balancing policy.
//
// The full client/channel/jsvm stack simulates tens of clients faithfully;
// this harness answers the fleet-sizing question instead: demand comes
// from sim::workload (open-loop Poisson sessions over a heterogeneous
// million-client population, diurnal-shaped, with a mid-run flash crowd
// and TTL-driven cold/warm model-cache churn), and each edge server is a
// bounded FIFO queue with per-device-class service times plus a
// content-addressed blob cache, routed through the real fleet::Balancer
// policies. Every request either completes on the edge (queueing delay
// emerges from the busy-server timeline) or is shed past the admission
// bound to client-local fallback, exactly the semantics of the full stack.
//
// Each cell is sharded: the client population (sim::workload range
// shards) and the fleet are split into S causally-closed slices, each
// owning its own sim::Simulation, balancer, servers, and stats. No event
// crosses a shard, so the shards run concurrently on util::parallel_for.
// S depends only on the fleet size — never on the thread count — and
// shard results merge in shard order, so the workload-result payload is
// byte-identical at any OFFLOAD_THREADS; only the throughput summary row
// may change.
//
// Reported per cell: latency percentiles over all finished inferences,
// the shed rate, and the upload bytes content-addressed dedup saved — the
// three curves a capacity planner needs. The 10^6-client sweep is a
// routine bench run.
//
// Deterministic: two invocations emit byte-identical BENCH_scale.json at
// any OFFLOAD_THREADS when OFFLOAD_BENCH_DETERMINISTIC=1 zeroes the
// wall-clock summary fields (CI diffs a double run at the smoke sizes;
// cap the sweep with OFFLOAD_SCALE_CLIENTS_MAX=<n>).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/json_writer.h"
#include "src/fleet/balancer.h"
#include "src/sim/simulation.h"
#include "src/sim/workload.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace {

using namespace offload;
namespace workload = offload::sim::workload;

constexpr double kDigestBytes = 64;  // content-address offer instead of blob

struct CellConfig {
  std::uint64_t clients = 1000;
  std::size_t fleet_size = 16;
  std::string policy = "least_outstanding";
  bool dedup = true;
  double duration_s = 60;
  double per_client_session_rate = 6e-4;  ///< aggregate scales with clients
  int max_queue = 8;                      ///< per-server admission bound
};

struct CellResult {
  std::uint64_t sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t cold_sessions = 0;
  std::uint64_t completed_edge = 0;
  std::uint64_t shed = 0;
  std::uint64_t failover_hops = 0;
  std::uint64_t full_uploads = 0;
  std::uint64_t dedup_hits = 0;
  double dedup_saved_mb = 0;
  double p50_s = 0, p99_s = 0, mean_s = 0;
  std::uint64_t events_fired = 0;
  double wall_ms = 0;  ///< wall clock, not part of the byte-diff payload
};

/// Shards per cell: one per 4 servers, capped at 8 — a pure function of
/// the fleet size (never of the thread count), so the shard
/// decomposition and therefore the merged results are identical on any
/// host. Every shard keeps >= 4 servers so the balancing policy still
/// has real choices inside a shard.
std::size_t shards_for(std::size_t fleet_size) {
  std::size_t s = fleet_size / 4;
  if (s < 1) s = 1;
  if (s > 8) s = 8;
  return s;
}

struct ServerState {
  sim::SimTime busy_until;
  std::vector<bool> has_model;
};

/// One causally-closed slice of a cell: a population shard, its fleet
/// slice, all mutable serving state, and the event loop that drives them.
/// Touched only by the thread running this shard's loop.
struct Shard {
  Shard(const fleet::BalancerConfig& bc, std::size_t servers_count,
        std::size_t classes_count)
      : balancer(bc, servers_count),
        servers(servers_count,
                ServerState{sim::SimTime::zero(),
                            std::vector<bool>(classes_count, false)}),
        outstanding(servers_count, 0) {}

  sim::Simulation sim;
  fleet::Balancer balancer;
  std::vector<ServerState> servers;
  std::vector<int> outstanding;
  CellResult res;
  util::Samples latency;
  std::unique_ptr<workload::Generator> gen;
};

double wall_now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

CellResult run_cell(const CellConfig& cell) {
  const std::size_t shard_count = shards_for(cell.fleet_size);
  const auto classes = workload::default_device_classes();

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Fleet slice [lo, hi) for shard s — same range math as the client
    // shards, so server counts stay balanced for any (fleet, S).
    std::size_t lo = cell.fleet_size * s / shard_count;
    std::size_t hi = cell.fleet_size * (s + 1) / shard_count;
    fleet::BalancerConfig bc;
    bc.policy = cell.policy;
    bc.seed = 42 + static_cast<std::uint64_t>(s);
    shards.push_back(
        std::make_unique<Shard>(bc, hi - lo, classes.size()));
  }

  for (std::size_t s = 0; s < shard_count; ++s) {
    Shard* sh = shards[s].get();
    sim::Simulation& eng = sh->sim;

    workload::Config wl;
    wl.clients = cell.clients;
    wl.seed = 42;
    wl.shard_count = static_cast<std::uint32_t>(shard_count);
    wl.shard_index = static_cast<std::uint32_t>(s);
    wl.arrivals.session_rate_per_s =
        cell.per_client_session_rate * static_cast<double>(cell.clients);
    wl.arrivals.diurnal.enabled = true;
    wl.arrivals.diurnal.period_s = cell.duration_s;  // one compressed "day"
    wl.arrivals.diurnal.trough = 0.4;
    wl.arrivals.diurnal.peak = 1.0;
    wl.arrivals.diurnal.peak_at_frac = 0.5;
    // Flash crowd: 3x arrivals for 5 s right at the diurnal peak.
    wl.arrivals.flash_crowds = {{cell.duration_s * 0.45, 5.0, 3.0}};
    wl.session.mean_requests = 3.0;
    wl.session.mean_think_s = 1.0;
    wl.session.cache_ttl_s = 120.0;
    wl.session.warm_start_fraction = 0.1;

    sh->gen = std::make_unique<workload::Generator>(
        eng, wl,
        [sh, &cell, &classes, &eng](const workload::Request& req) {
          CellResult& out = sh->res;
          const workload::DeviceClass& dc = classes[req.device_class];
          // Sessions stick to a server under consistent hashing; the
          // other policies ignore the key and use the live outstanding
          // counts. The key is the global client id, so stickiness is
          // shard-stable.
          std::vector<std::size_t> candidates = sh->balancer.route(
              "c" + std::to_string(req.client), sh->outstanding);
          std::size_t chosen = sh->servers.size();  // sentinel: shed
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (sh->outstanding[candidates[i]] < cell.max_queue) {
              chosen = candidates[i];
              out.failover_hops += i;
              break;
            }
          }
          ++out.requests;
          if (chosen == sh->servers.size()) {
            // Shard-wide admission bound hit: typed shed, client-local
            // fallback (the inference still completes — it just costs
            // device time).
            ++out.shed;
            sh->latency.add(dc.local_fallback_s);
            return;
          }
          ServerState& server = sh->servers[chosen];
          ++sh->outstanding[chosen];

          // Cold sessions pre-send the model before the snapshot can run.
          double upload_s = 0;
          if (req.cold_model) {
            double model_bytes = dc.model_mb * 1024 * 1024;
            if (cell.dedup && server.has_model[req.device_class]) {
              // Content-addressed: the digest offer answers "have", the
              // blob itself never crosses the uplink.
              upload_s = kDigestBytes * 8 / (dc.uplink_mbps * 1e6);
              ++out.dedup_hits;
              out.dedup_saved_mb += (model_bytes - kDigestBytes) / (1024 * 1024);
            } else {
              upload_s = model_bytes * 8 / (dc.uplink_mbps * 1e6);
              server.has_model[req.device_class] = true;
              ++out.full_uploads;
            }
          }

          // FIFO single-lane server: service starts when the model is in
          // and the lane is free; queueing delay emerges from busy_until.
          sim::SimTime ready = req.at + sim::SimTime::seconds(upload_s);
          sim::SimTime start =
              server.busy_until > ready ? server.busy_until : ready;
          sim::SimTime done =
              start + sim::SimTime::seconds(dc.server_service_ms / 1e3);
          server.busy_until = done;
          sim::SimTime arrival = req.at;
          eng.schedule_at(done, [sh, chosen, arrival, done] {
            --sh->outstanding[chosen];
            ++sh->res.completed_edge;
            sh->latency.add((done - arrival).to_seconds());
          });
        });
    sh->gen->start(sim::SimTime::seconds(cell.duration_s));
  }

  double t0 = wall_now_ms();
  util::parallel_for(0, static_cast<std::int64_t>(shard_count), 1,
                     [&shards](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t s = lo; s < hi; ++s) {
                         shards[s]->res.events_fired = shards[s]->sim.run();
                       }
                     });
  double t1 = wall_now_ms();

  // Deterministic merge in shard order — identical at any thread count.
  CellResult out;
  util::Samples latency;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const CellResult& r = shards[s]->res;
    out.requests += r.requests;
    out.completed_edge += r.completed_edge;
    out.shed += r.shed;
    out.failover_hops += r.failover_hops;
    out.full_uploads += r.full_uploads;
    out.dedup_hits += r.dedup_hits;
    out.dedup_saved_mb += r.dedup_saved_mb;
    out.sessions += shards[s]->gen->sessions_started();
    out.cold_sessions += shards[s]->gen->cold_sessions();
    out.events_fired += r.events_fired;
    latency.merge(shards[s]->latency);
  }
  out.wall_ms = t1 - t0;
  if (latency.count() > 0) {
    out.p50_s = latency.percentile(50.0);
    out.p99_s = latency.percentile(99.0);
    out.mean_s = latency.mean();
  }
  return out;
}

std::string fmt3(double v) { return util::format_fixed(v, 3); }

std::uint64_t max_clients_from_env() {
  if (const char* env = std::getenv("OFFLOAD_SCALE_CLIENTS_MAX");
      env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1000000;
}

}  // namespace

int main() {
  bench::print_banner(
      "Capacity planning — clients x fleet size x balancing policy",
      "p99 and shed rate stay flat while the fleet covers offered load, "
      "then cliff as the diurnal peak + flash crowd exceed capacity; "
      "content-addressed dedup savings grow with population (large "
      "populations churn cold, but their blobs are already on the edge)");

  const std::uint64_t max_clients = max_clients_from_env();
  const bool deterministic =
      std::getenv("OFFLOAD_BENCH_DETERMINISTIC") != nullptr;

  std::vector<bench::JsonObject> json;
  util::TextTable table;
  table.header({"clients", "policy", "servers", "shards", "requests",
                "shed%", "p50 s", "p99 s", "cold%", "dedup MB saved"});

  std::uint64_t total_events = 0;
  double total_wall_ms = 0;
  for (std::uint64_t clients : {std::uint64_t{1000}, std::uint64_t{10000},
                                std::uint64_t{100000},
                                std::uint64_t{1000000}}) {
    if (clients > max_clients) continue;
    for (const char* policy : {"hash", "least_outstanding", "p2c"}) {
      for (std::size_t fleet_size : {std::size_t{4}, std::size_t{16},
                                     std::size_t{64}}) {
        CellConfig cell;
        cell.clients = clients;
        cell.policy = policy;
        cell.fleet_size = fleet_size;
        CellResult r = run_cell(cell);
        total_events += r.events_fired;
        total_wall_ms += r.wall_ms;
        double shed_rate =
            r.requests > 0
                ? static_cast<double>(r.shed) / static_cast<double>(r.requests)
                : 0;
        double cold_rate =
            r.sessions > 0 ? static_cast<double>(r.cold_sessions) /
                                 static_cast<double>(r.sessions)
                           : 0;
        table.row({std::to_string(clients), policy,
                   std::to_string(fleet_size),
                   std::to_string(shards_for(fleet_size)),
                   std::to_string(r.requests), fmt3(shed_rate * 100),
                   fmt3(r.p50_s), fmt3(r.p99_s), fmt3(cold_rate * 100),
                   fmt3(r.dedup_saved_mb)});
        json.push_back(
            bench::JsonObject()
                .set("experiment", "capacity_planning")
                .set("clients", static_cast<std::int64_t>(clients))
                .set("policy", policy)
                .set("fleet_size", fleet_size)
                .set("shards", shards_for(fleet_size))
                .set("sessions", static_cast<std::int64_t>(r.sessions))
                .set("requests", static_cast<std::int64_t>(r.requests))
                .set("cold_sessions",
                     static_cast<std::int64_t>(r.cold_sessions))
                .set("completed_edge",
                     static_cast<std::int64_t>(r.completed_edge))
                .set("shed", static_cast<std::int64_t>(r.shed))
                .set("shed_rate", shed_rate)
                .set("failover_hops",
                     static_cast<std::int64_t>(r.failover_hops))
                .set("p50_s", r.p50_s)
                .set("p99_s", r.p99_s)
                .set("mean_s", r.mean_s)
                .set("full_uploads",
                     static_cast<std::int64_t>(r.full_uploads))
                .set("dedup_hits", static_cast<std::int64_t>(r.dedup_hits))
                .set("dedup_saved_mb", r.dedup_saved_mb)
                .set("events_fired",
                     static_cast<std::int64_t>(r.events_fired)));
      }
    }
  }
  std::printf("%s", table.str().c_str());

  double events_per_s =
      total_wall_ms > 0 ? static_cast<double>(total_events) /
                              (total_wall_ms / 1e3)
                        : 0;
  std::printf("\nsweep wall clock: %.0f ms, %.2fM events/s\n",
              total_wall_ms, events_per_s / 1e6);
  std::printf(
      "Note: shed inferences complete via client-local fallback, so heavy "
      "shed shows up as a fat p99 (device execution times), not lost "
      "requests. Fleet sizing is read off the smallest fleet whose p99 and "
      "shed rate survive the flash crowd.\n");

  // The only row allowed to differ across thread counts (CI's
  // cross-thread byte gate filters on the experiment name). Wall-clock
  // fields are zeroed under OFFLOAD_BENCH_DETERMINISTIC so double runs
  // byte-match.
  json.push_back(bench::JsonObject()
                     .set("experiment", "capacity_planning_throughput")
                     .set("events_fired_total",
                          static_cast<std::int64_t>(total_events))
                     .set("wall_ms", deterministic ? 0.0 : total_wall_ms)
                     .set("events_per_s",
                          deterministic ? 0.0 : events_per_s));

  return bench::write_json_array("BENCH_scale.json", json) ? 0 : 1;
}
