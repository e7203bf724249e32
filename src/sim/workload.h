// Open-loop workload generator for population-scale simulations. Sessions
// arrive from a seeded stochastic process — homogeneous Poisson, or a
// Markov-modulated (bursty) variant — shaped by an optional diurnal rate
// curve and scheduled flash crowds. Each session belongs to one client out
// of a configurable population of heterogeneous device classes, issues a
// geometric number of requests separated by exponential think times, and
// is "cold" (must re-upload its model) when the client's cache TTL lapsed
// since its last activity — the churn knob that sets the cold/warm mix.
//
// Open-loop means arrivals never wait for service: the generator emits
// demand on the simulation clock regardless of how the serving side keeps
// up, which is what capacity planning needs (bench_scale drives 10^3→10^6
// clients through this against a modeled edge fleet).
//
// Determinism: every draw comes from Pcg32 streams owned by the generator
// and is consumed in event-firing order, so a (seed, config) pair yields a
// byte-identical request stream on every run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulation.h"
#include "src/util/rng.h"

namespace offload::sim::workload {

/// A slice of the client population with its own hardware story: how fast
/// its uplink ships the model, how big that model is, how long the edge
/// spends serving one of its requests, and what a shed request costs when
/// it falls back to local execution.
struct DeviceClass {
  std::string name;
  double weight = 1.0;           ///< population share (normalized)
  double uplink_mbps = 20.0;     ///< model pre-send bandwidth
  double model_mb = 11.6;        ///< model blob uploaded on a cold start
  double server_service_ms = 10; ///< edge service time per request
  double local_fallback_s = 5.0; ///< latency when shed to on-device exec
};

/// The three paper apps across a fast/slow device split.
std::vector<DeviceClass> default_device_classes();

/// Smooth day/night rate modulation: multiplier `peak` at the peak point
/// of the period, `trough` half a period away, cosine in between.
struct DiurnalCurve {
  bool enabled = false;
  double period_s = 86400.0;
  double trough = 0.25;
  double peak = 1.0;
  double peak_at_frac = 0.75;  ///< where in the period the peak sits
  double factor(double t_s) const;
};

/// A scheduled surge: rate multiplies by `multiplier` during the window.
struct FlashCrowd {
  double at_s = 0;
  double duration_s = 0;
  double multiplier = 1.0;
};

struct ArrivalConfig {
  enum class Pattern { kPoisson, kBursty };
  Pattern pattern = Pattern::kPoisson;
  /// Aggregate base session-arrival rate across the whole population.
  double session_rate_per_s = 10.0;
  /// Bursty (Markov-modulated Poisson): the rate multiplies by
  /// `burst_multiplier` during exponential "on" periods of mean
  /// `mean_on_s`, separated by "off" periods of mean `mean_off_s`.
  double burst_multiplier = 4.0;
  double mean_on_s = 2.0;
  double mean_off_s = 8.0;
  DiurnalCurve diurnal;
  std::vector<FlashCrowd> flash_crowds;
};

struct SessionConfig {
  double mean_requests = 3.0;  ///< geometric per-session request count
  double mean_think_s = 1.0;   ///< exponential gap between requests
  /// A client's model cache stays warm this long after its last activity;
  /// a session starting later is cold and re-uploads.
  double cache_ttl_s = 120.0;
  /// Fraction of clients whose cache is already warm at t=0.
  double warm_start_fraction = 0.0;
};

struct Config {
  std::uint64_t clients = 1000;
  std::vector<DeviceClass> device_classes;  ///< default set when empty
  ArrivalConfig arrivals;
  SessionConfig session;
  std::uint64_t seed = 1;
  /// Stable population sharding: this generator emits only the clients
  /// of range shard `shard_index` out of `shard_count`, with the
  /// aggregate arrival rate scaled by the shard's population share and
  /// RNG streams salted per shard. Shard membership depends only on
  /// (client, clients, shard_count), so each shard can run on its own
  /// Simulation on any thread and the union of all shards' request
  /// streams is byte-identical however the shards are scheduled
  /// (WorkloadSharding in tests/sim_test.cpp). The default (1 shard) is
  /// stream-identical to the unsharded generator.
  std::uint32_t shard_count = 1;
  std::uint32_t shard_index = 0;
};

/// First client id of range shard `s` out of `count` over `n` clients.
std::uint64_t shard_begin(std::uint64_t n, std::uint32_t s,
                          std::uint32_t count);

/// Stable shard of a client id: a function of (client, n, count) only.
std::uint32_t shard_of(std::uint64_t client, std::uint64_t n,
                       std::uint32_t count);

/// One unit of demand handed to the serving side.
struct Request {
  std::uint64_t client = 0;
  std::uint64_t session = 0;  ///< unique, increasing with arrival order
  std::uint32_t device_class = 0;
  std::uint32_t index_in_session = 0;
  bool cold_model = false;  ///< first request of a cold session
  SimTime at;
};

class Generator {
 public:
  using RequestFn = std::function<void(const Request&)>;

  Generator(Simulation& sim, Config config, RequestFn on_request);

  /// Begin emitting sessions whose arrivals land in [now, until). Call
  /// once; the generator then sustains itself on the event loop.
  void start(SimTime until);

  const DeviceClass& device_class(std::uint32_t idx) const {
    return classes_[idx];
  }
  /// Stable per-client class assignment (hash of client id and seed).
  std::uint32_t device_class_of(std::uint64_t client) const;

  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t requests_emitted() const { return requests_emitted_; }
  std::uint64_t cold_sessions() const { return cold_sessions_; }

  /// The client-id range this generator's shard owns: [begin, end).
  std::uint64_t shard_client_begin() const { return shard_lo_; }
  std::uint64_t shard_client_end() const { return shard_hi_; }

 private:
  struct ClientState {
    SimTime warm_until;  ///< cache considered warm through this time
  };

  void schedule_next_arrival();
  void begin_session();
  void emit_request(std::uint64_t client, std::uint64_t session,
                    std::uint32_t klass, std::uint32_t index,
                    std::uint32_t remaining, bool cold);
  double rate_at(double t_s) const;  ///< diurnal + flash (burst separate)
  double exp_draw(util::Pcg32& rng, double mean);

  Simulation& sim_;
  Config config_;
  RequestFn on_request_;
  std::vector<DeviceClass> classes_;
  std::vector<double> class_cdf_;
  std::vector<ClientState> clients_;  ///< indexed by client - shard_lo_
  std::uint64_t shard_lo_ = 0;
  std::uint64_t shard_hi_ = 0;
  double shard_share_ = 1.0;  ///< population fraction this shard owns
  util::Pcg32 arrival_rng_;
  util::Pcg32 session_rng_;
  double until_s_ = 0;
  double rate_max_ = 0;      ///< thinning envelope
  double arrival_cursor_s_ = 0;
  bool burst_on_ = false;
  double burst_until_s_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t requests_emitted_ = 0;
  std::uint64_t cold_sessions_ = 0;
};

}  // namespace offload::sim::workload
