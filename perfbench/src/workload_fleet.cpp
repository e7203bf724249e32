// fleet_population: population-scale serving with no DNN, no jsvm and no
// bytes work. One op is one capacity cell in the bench_scale shape: a
// sim::workload::Generator drives 10^5-10^6 clients through a compressed
// diurnal day with a flash crowd and cold/warm model-cache churn;
// fleet::Balancer routes each request; every edge server is a
// serve::Scheduler taking opaque jobs at the device class's service time,
// with a bounded queue whose overflow fails over down the candidate list
// and finally sheds to client-local execution. Arrivals are open-loop in
// simulated time; the host runs the whole cell on one sim::Simulation as
// fast as it can. The op kind is (population, balancing policy); the
// variant seeds the generator and the p2c draw stream.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/balancer.h"
#include "src/serve/scheduler.h"
#include "src/sim/simulation.h"
#include "src/sim/workload.h"
#include "src/util/stats.h"
#include "src/workload.h"

namespace perfbench {
namespace {

using namespace offload;
namespace workload = offload::sim::workload;

constexpr std::uint64_t kPopulations[] = {100000, 300000, 1000000};
constexpr const char* kPolicies[] = {"hash", "least_outstanding", "p2c"};
constexpr std::uint64_t kClientsPerServer = 25000;
constexpr std::size_t kMaxQueue = 8;
constexpr double kDayS = 60;                  ///< one compressed "day"
constexpr double kSessionRatePerClient = 6e-4;

struct CellResult {
  std::uint64_t requests = 0;
  std::uint64_t shed = 0;
  std::uint64_t failover_hops = 0;
  std::uint64_t events = 0;
  std::uint64_t launches = 0;
  std::size_t peak_queue_depth = 0;
  util::Samples latency_s;
};

/// One cell. With a tracer, every route and submit call is timed into its
/// counters and the event loop runs inside a "sim.run" span.
CellResult run_cell(std::uint64_t clients, const char* policy,
                    std::uint32_t variant, Tracer* t) {
  sim::Simulation sim;
  const std::vector<workload::DeviceClass> classes =
      workload::default_device_classes();
  const std::size_t server_count = clients / kClientsPerServer;

  fleet::BalancerConfig bc;
  bc.policy = policy;
  bc.seed = 7 + variant;
  fleet::Balancer balancer(bc, server_count);
  serve::SchedulerConfig sc;
  sc.max_queue = kMaxQueue;
  std::vector<std::unique_ptr<serve::Scheduler>> servers;
  for (std::size_t k = 0; k < server_count; ++k) {
    servers.push_back(std::make_unique<serve::Scheduler>(sim, sc));
  }
  std::vector<int> outstanding(server_count, 0);
  CellResult out;
  // Host time inside route/submit calls; kept locally and handed to the
  // tracer once, so the tracer's map is off the timed path.
  double route_ms = 0, submit_ms = 0;
  std::uint64_t routes = 0, submits = 0;

  // A request reaches the fleet once its model is uploaded (cold
  // sessions) and is admitted by the first candidate with queue room.
  auto admit = [&](const workload::Request& req) {
    const workload::DeviceClass& dc = classes[req.device_class];
    ++out.requests;
    const std::string key = "c" + std::to_string(req.client);
    Clock::time_point t0;
    if (t) t0 = Clock::now();
    std::vector<std::size_t> candidates = balancer.route(key, outstanding);
    if (t) {
      route_ms += ms_between(t0, Clock::now());
      ++routes;
    }
    const sim::SimTime arrival = req.at;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t k = candidates[i];
      if (t) t0 = Clock::now();
      serve::SubmitResult submitted = servers[k]->submit_opaque(
          dc.server_service_ms / 1e3,
          [&out, &outstanding, k, arrival](const serve::RequestTiming& tm) {
            --outstanding[k];
            out.latency_s.add((tm.completed - arrival).to_seconds());
          });
      if (t) {
        submit_ms += ms_between(t0, Clock::now());
        ++submits;
      }
      if (submitted.admitted) {
        ++outstanding[k];
        out.failover_hops += i;
        return;
      }
    }
    ++out.shed;
    out.latency_s.add(dc.local_fallback_s);
  };

  workload::Config wl;
  wl.clients = clients;
  wl.seed = 42 + variant;
  wl.arrivals.session_rate_per_s =
      kSessionRatePerClient * static_cast<double>(clients);
  wl.arrivals.diurnal.enabled = true;
  wl.arrivals.diurnal.period_s = kDayS;
  wl.arrivals.diurnal.trough = 0.4;
  wl.arrivals.diurnal.peak = 1.0;
  wl.arrivals.diurnal.peak_at_frac = 0.5;
  wl.arrivals.flash_crowds = {{kDayS * 0.45, 5.0, 3.0}};
  wl.session.mean_requests = 3.0;
  wl.session.mean_think_s = 1.0;
  wl.session.cache_ttl_s = 120.0;
  wl.session.warm_start_fraction = 0.1;
  workload::Generator gen(sim, wl, [&](const workload::Request& req) {
    if (!req.cold_model) return admit(req);
    const workload::DeviceClass& dc = classes[req.device_class];
    sim.schedule(sim::SimTime::seconds(dc.model_mb * 8 / dc.uplink_mbps),
                 [&admit, req] { admit(req); });
  });
  gen.start(sim::SimTime::seconds(kDayS));

  if (t) {
    out.events = t->span("sim.run", [&] { return sim.run(); });
    t->add("fleet.route_ms", route_ms);
    t->add("fleet.routes", static_cast<double>(routes));
    t->add("serve.submit_ms", submit_ms);
    t->add("serve.submits", static_cast<double>(submits));
  } else {
    out.events = sim.run();
  }
  for (const auto& s : servers) {
    out.launches += s->stats().launches;
    out.peak_queue_depth =
        std::max(out.peak_queue_depth, s->stats().peak_queue_depth);
  }
  return out;
}

class FleetPopulation : public Workload {
 public:
  explicit FleetPopulation(bool smoke) : smoke_(smoke) {}

  std::vector<std::string> kinds() const override {
    std::vector<std::string> out;
    for (std::size_t k = 0; k < kind_count(); ++k) {
      out.push_back(std::to_string(population(k)) + "/" + policy(k));
    }
    return out;
  }

  std::string run(std::size_t kind, std::uint32_t variant, Tracer& t,
                  std::vector<Calibration>&) override {
    const std::uint64_t clients = population(kind);
    CellResult r = t.span(
        "core.op",
        [&] { return run_cell(clients, policy(kind), variant, nullptr); },
        /*covered=*/false);
    if (t.on()) {
      CellResult traced = run_cell(clients, policy(kind), variant, &t);
      t.add("sim.events", static_cast<double>(traced.events));
      t.add("fleet.requests", static_cast<double>(traced.requests));
      t.add("fleet.failover_hops", static_cast<double>(traced.failover_hops));
      t.add("serve.shed", static_cast<double>(traced.shed));
      t.add("serve.launches", static_cast<double>(traced.launches));
      t.max("serve.peak_queue_depth",
            static_cast<double>(traced.peak_queue_depth));
    }
    return std::to_string(r.requests) + "|" + std::to_string(r.shed) + "|" +
           exact(r.latency_s.percentile(50)) + "|" +
           exact(r.latency_s.percentile(99)) + "|" +
           std::to_string(r.events);
  }

 private:
  // Smoke: the 10^5 row only.
  std::size_t kind_count() const {
    return std::size(kPolicies) * (smoke_ ? 1 : std::size(kPopulations));
  }
  static std::uint64_t population(std::size_t kind) {
    return kPopulations[kind / std::size(kPolicies)];
  }
  static const char* policy(std::size_t kind) {
    return kPolicies[kind % std::size(kPolicies)];
  }

  bool smoke_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_population(bool smoke) {
  return std::make_unique<FleetPopulation>(smoke);
}

}  // namespace perfbench
