// The embedded client (the paper's Odroid-XU4 board). Runs the web app on
// its browser, pre-sends the NN model at app start, and — when the
// configured offload event fires — captures a snapshot and migrates
// execution to the edge server, adopting the result snapshot when it comes
// back. Implements the offloading configurations evaluated in Fig. 6:
// local-only, offload before/after ACK, and partial inference.
//
// When ClientConfig::supervisor.enabled is set, an offload supervisor
// state machine wraps the protocol: per-phase deadlines (pre-send, upload,
// server execution, download), retries with exponential backoff and
// deterministic jitter, hedged local execution, a per-server circuit
// breaker that fails over along an ordered server candidate list
// (attach_server — snapshots are self-contained, so migration is just
// re-targeting), and crash recovery (a restarted server answers
// "model_missing"/"need_full"; the supervisor re-presends and retries).
// Disabled, the client behaves exactly as before.
//
// Cut selection has one runtime path: ClientConfig::controller (src/ctrl).
// Server replies enter through on_message, which dispatches each message
// kind — and each control-reply prefix — to one handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ctrl/controller.h"
#include "src/edge/browser_host.h"
#include "src/edge/protocol.h"
#include "src/edge/supervisor.h"
#include "src/jsvm/fingerprint.h"
#include "src/net/bandwidth.h"
#include "src/net/channel.h"
#include "src/obs/obs.h"
#include "src/sim/simulation.h"
#include "src/vmsynth/vmimage.h"

namespace offload::edge {

struct ClientConfig {
  nn::DeviceProfile profile = nn::DeviceProfile::embedded_client();
  /// false = run the app entirely on the client (the Fig. 6 "Client" bar).
  bool offload = true;
  /// Send the model at app start (Section III.B.1). When false, model
  /// files accompany the first snapshot, which is the slow path.
  bool presend_model = true;
  /// Privacy mode: upload only the rear part of the weights so the server
  /// cannot invert features (Section III.B.2).
  bool presend_rear_only = false;
  /// Partition point (node index). SIZE_MAX = full-inference offloading.
  std::size_t partition_cut = SIZE_MAX;
  /// Event type whose handler is offloaded: "click" for full inference,
  /// "front_complete" for partial (Fig. 5).
  std::string offload_event = "click";
  /// If the server replies not_installed, ship a VM overlay containing the
  /// offloading system + model, then retry (Section III.B.3).
  bool install_on_demand = true;
  /// Component sizes for the on-demand overlay (defaults = the paper's).
  vmsynth::SystemBundleSizes overlay_sizes;
  /// Repeat offloads send differential snapshots against the state left on
  /// the server by the previous offload (the paper's Section VI future
  /// work). Falls back to full snapshots when the server lost the session.
  bool differential_snapshots = false;
  /// While the model upload has not been ACKed, run the inference locally
  /// instead of offloading (the paper's Section IV.A suggestion: "it would
  /// be better for the client to execute the DNN locally while the model
  /// is being uploaded").
  bool local_fallback_before_ack = false;
  /// Offload supervision (deadlines/retries/hedging/breaker/recovery).
  /// Disabled by default.
  SupervisorConfig supervisor;
  /// Online partition-point controller (src/ctrl), the client's only
  /// runtime cut selection. The default `static` policy disables it
  /// entirely — the fixed partition_cut above is used and behavior is
  /// bit-identical to the paper reproduction. `drift` starts from the
  /// Neurosurgeon-style partitioner estimate at the observed bandwidth
  /// (Section III.B.2) and `bandit` explores from it; both re-select the
  /// cut per inference from live telemetry and re-cut on supervised
  /// failures. Only meaningful for partial-inference apps (offload_event ==
  /// "front_complete"); implies full-weight pre-send.
  ctrl::ControllerConfig controller;
  /// Telemetry hook for the controller: given an attached-server index,
  /// return that server's live load signals (queue depth, lanes, batch
  /// wait, fleet outstanding). The runtime wires this to the scheduler's
  /// pull accessors; unset, the controller sees only measured bandwidth.
  std::function<ctrl::LinkSignals(std::size_t server)> signals;
  /// Content-addressed pre-send: offer per-file digests (kModelOffer)
  /// before shipping bodies, so a server already caching the blobs can
  /// skip them. Off by default — the wire protocol stays exactly the
  /// paper's.
  bool dedup_presend = false;
  /// Fleet routing hook: called at the start of inference number `n`
  /// (0-based) with the ordered server-candidate list to use — index 0 is
  /// the primary, the rest are failover targets in preference order.
  /// Indices refer to attached servers (0 = the constructor endpoint).
  /// Unset (the default) keeps the sticky active-server behavior.
  std::function<std::vector<std::size_t>(std::uint64_t n)> route;
  /// Completion hook: fires exactly once per inference when it finishes
  /// (remote result, local fallback, or hedge win), with the serving
  /// server index and whether the result actually came from it.
  std::function<void(std::size_t server, bool offloaded)> on_inference_done;
  jsvm::SnapshotOptions snapshot_options;
  /// Observability sink (optional). When set, every inference records a
  /// span tree rooted at a kInference span (trace id = inference number)
  /// plus client counters/histograms. Null disables tracing at the cost
  /// of one branch per site; simulated timings are identical either way.
  obs::Obs* obs = nullptr;
};

/// The app as the developer shipped it.
struct AppBundle {
  std::string name;    ///< app/model name, e.g. "googlenet"
  std::string source;  ///< MicroJS program (HTML script part)
  std::shared_ptr<nn::Network> network;
  nn::Tensor input_image;
  std::string click_target = "btn";   ///< element the user clicks
  std::string result_element = "result";  ///< where the app writes output
};

/// Client-side observations of one inference (Fig. 7 ingredients).
struct ClientTimeline {
  sim::SimTime app_started;
  sim::SimTime model_upload_started;
  std::optional<sim::SimTime> ack_received;
  sim::SimTime clicked;
  double client_exec_s = 0;  ///< local DNN time (full local or front part)
  double capture_s = 0;      ///< snapshot capture on the client
  std::optional<sim::SimTime> snapshot_sent;
  std::optional<sim::SimTime> result_received;
  double restore_s = 0;      ///< result-snapshot restore on the client
  std::optional<sim::SimTime> finished;
  bool offloaded = false;
  /// This inference ran locally — either the model ACK was still pending,
  /// or the server shed the request ("overloaded:" control reply), or the
  /// supervisor gave up on the remote side.
  bool local_fallback = false;
  /// This inference shipped a differential snapshot.
  bool used_differential = false;
  /// Partition point used (SIZE_MAX for full inference).
  std::size_t used_partition_cut = SIZE_MAX;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t model_upload_bytes = 0;
  jsvm::SnapshotStats snapshot_stats;

  // --- Supervisor observations (all zero/false when it is disabled) ---
  int retries = 0;            ///< snapshot re-sends for this inference
  double backoff_wait_s = 0;  ///< time spent waiting between retries
  double recovery_s = 0;      ///< time spent re-presending the model
  bool hedged = false;        ///< a local hedge was started
  bool hedge_local_win = false;  ///< ...and the local run finished first
  double hedge_wasted_s = 0;  ///< local compute burned by a losing hedge
  bool recovered = false;     ///< hit crash recovery (model re-presend)
  int server_index = 0;       ///< attached-server index (0 = primary)

  /// End-to-end inference latency (click → finished).
  double inference_seconds() const {
    return finished ? (*finished - clicked).to_seconds() : -1.0;
  }
};

class ClientDevice {
 public:
  ClientDevice(sim::Simulation& sim, net::Endpoint& endpoint,
               ClientConfig config, AppBundle bundle);

  /// Launch the app at the current simulated time: evaluate the program,
  /// start the model pre-send.
  void start();

  /// Schedule the user's click on the app's button at absolute time `at`.
  /// May be called repeatedly (later times) for multiple inferences; each
  /// completed inference's timeline is archived in history().
  void click_at(sim::SimTime at);

  /// Register an additional edge server (its own channel endpoint). The
  /// supervisor fails over along the ordered candidate list — the
  /// constructor endpoint is server 0, each attach_server appends the
  /// next index — and snapshots are self-contained, so nothing migrates
  /// but the bytes. Returns the new server's index.
  std::size_t attach_server(net::Endpoint& endpoint);

  /// Number of attached servers (constructor endpoint included).
  std::size_t server_count() const { return servers_.size(); }

  bool finished() const { return timeline_.finished.has_value(); }
  const ClientTimeline& timeline() const { return timeline_; }
  /// Timelines of earlier inferences (most recent last).
  const std::vector<ClientTimeline>& history() const { return history_; }

  /// Text the app wrote into its result element ("" until finished).
  std::string result_text() const;

  BrowserHost& browser() { return *browser_; }
  const AppBundle& bundle() const { return bundle_; }
  const ClientConfig& config() const { return config_; }
  /// Lifetime supervisor counters (zeros when supervision is off).
  const SupervisorStats& supervisor_stats() const { return sup_stats_; }
  /// Breaker for server `index` (constructor endpoint = 0), for tests.
  const CircuitBreaker& breaker(std::size_t index) const {
    return breakers_[index];
  }
  /// Trace id of the current (or last) inference; 0 before the first click
  /// or when tracing is off. The runtime derives InferenceBreakdown from
  /// this trace's span tree.
  obs::TraceId last_trace_id() const { return trace_; }
  /// The partition controller, once an adaptive policy has built it
  /// (null under `static` or before the first decision). For tests.
  const ctrl::CutController* cut_controller() const {
    return controller_ ? &*controller_ : nullptr;
  }

 private:
  /// Supervisor phase currently under a deadline watchdog.
  enum class Phase { kIdle, kPresend, kUpload, kExecute, kDownload };

  /// A captured kSnapshot message and its client-side capture seconds.
  struct CapturedSnapshot {
    net::Message msg;
    double capture_s = 0;
  };

  // --- Reply handling: on_message dispatches to one handler per kind ---
  void on_message(const net::Message& message);
  void on_ack(const net::Message& message);
  void on_result(const net::Message& message);
  void on_accepted(const net::Message& message);
  void on_done(const net::Message& message);
  void on_need_full(const net::Message& message);
  void on_redirect(const net::Message& message);
  /// "overloaded:" and "expired:": the server shed the request.
  void on_shed(const net::Message& message);
  void on_model_missing(const net::Message& message);
  /// "rejected:": the snapshot failed to decode, parse or run on the server.
  void on_rejected(const net::Message& message);
  void on_send_files(const net::Message& message);
  void on_corrupt_payload(const net::Message& message);
  void on_not_installed(const net::Message& message);

  void begin_inference();
  void run_app_events();
  /// Run the realm's queued events — deferring `offload_event` when
  /// `defer_offload` — and return the compute seconds they took.
  double run_realm(bool defer_offload);
  /// run_realm, charged to the timeline as a kClientExec span `label`
  /// starting now.
  double execute(bool defer_offload, const char* label);
  void run_locally();
  /// Finish this inference locally after the server refused it: through
  /// abandon_remote when supervised, else directly (uncounted).
  void fall_back_locally(const char* reason);
  /// Stop waiting on the server: drop the in-flight snapshot and the
  /// flags that would replay it.
  void clear_inflight();
  /// Capture the realm at the current cut into a kSnapshot message (a
  /// differential against baseline_ when `differential`) and charge it on
  /// the timeline with a capture span from `at`. A recapture adds to the
  /// inference's capture time; the first capture sets it.
  CapturedSnapshot capture_message(bool differential, sim::SimTime at,
                                   bool recapture);
  void send_snapshot_message(net::Message msg, double busy_s);
  /// Send the held in-flight snapshot (its transmit-up span `label`).
  void send_inflight(const char* label);
  void send_model_files(bool count_as_presend);
  /// Mark the model unsent on the active server, send it again and watch
  /// for the ACK.
  void resend_model();
  void send_requested_files(const FileListPayload& request);
  void send_overlay();
  /// Open the session-trace kPresend span `kind`<app> for a model send
  /// (closing the one it supersedes) and stamp it on `msg`.
  void open_presend_span(net::Message& msg, const char* kind,
                         const char* counter);
  /// First (non-retry) send of the held in-flight snapshot: used when a
  /// dedup pre-send resolves and the snapshot that waited on it goes out.
  void dispatch_inflight_snapshot();

  // --- Partition controller (all no-ops under the static policy) ---
  /// The controller governs this client: adaptive policy, offloading
  /// partial-inference app.
  bool controller_active() const {
    return config_.controller.active() && config_.offload &&
           config_.offload_event == "front_complete";
  }
  /// Build the controller (profiling both cost models) on first use.
  void ensure_controller();
  /// Assemble the telemetry for a decision about `server`: measured upload
  /// bandwidth plus whatever the signals hook reports.
  ctrl::LinkSignals gather_signals(std::size_t server);
  /// Make the per-inference decision for the upcoming click and apply it
  /// (cut, or local fallback). Emits a kCtrlDecision span.
  void apply_decision(ctrl::Decision decision, const char* origin);
  /// Close the loop: report the active decision's outcome once.
  void record_decision(bool ok, double observed_s);
  /// Re-decide after `attempts_` failed sends; nullopt = keep retrying the
  /// current cut (controller inactive, hedge running, or nothing useful).
  std::optional<ctrl::Decision> plan_recut();
  /// Supersede the current decision. A local one abandons the remote side;
  /// otherwise re-run the app front at the decision's cut and resend the
  /// snapshot (drops the stale deferred event, honest recompute +
  /// recapture).
  void perform_recut(const ctrl::Decision& decision);
  /// Apply the routing hook (if any) for the upcoming inference: refresh
  /// the candidate order and re-pin the active server to its head.
  void apply_route();
  /// Make server `index` the active one (sessions do not migrate).
  void switch_server(std::size_t index);
  /// Fire the on_inference_done hook (once per inference).
  void notify_done();

  // --- Supervisor machinery (all no-ops when supervision is off) ---
  bool supervising() const { return config_.supervisor.enabled; }
  net::Endpoint& active_endpoint() { return *servers_[active_server_]; }
  CircuitBreaker& active_breaker() { return breakers_[active_server_]; }
  /// Route every breaker verdict through here: records the outcome on the
  /// active server's breaker and, when that flips the breaker between
  /// closed and open/half-open, publishes the per-server obs gauge
  /// `supervisor.breaker_open.server<k>` (1 = tripped, 0 = closed) and
  /// the breaker_opens counter. Emitted only on transitions, so steady
  /// workloads carry no gauge churn.
  void record_breaker_outcome(bool success);
  char& model_sent() { return model_sent_[active_server_]; }
  /// The next candidate after the active server, in candidate order with
  /// wraparound, whose breaker admits a request right now. Returns
  /// server_count() when there is none. Consults (and thereby mutates, in
  /// half-open) each candidate's breaker at most once.
  std::size_t next_usable_server();
  void arm_phase(Phase phase, sim::SimTime deadline);
  void arm_upload_watchdog();
  void cancel_phase_timer();
  void cancel_supervision_timers();
  void on_phase_timeout(Phase phase);
  /// Funnel for every retryable remote failure: backoff + resend, fail
  /// over, or abandon to local execution.
  void retry_snapshot(const char* reason);
  /// Re-send the model after a backoff wait (a lost or unanswered
  /// pre-send), until the attempt budget runs out.
  void retry_presend_after_backoff();
  void resend_inflight();
  /// Resend the in-flight snapshot if the active server holds the model,
  /// else re-presend first (begin_recovery).
  void resend_or_recover(const char* reason);
  bool try_failover();
  /// Re-presend the model to the active server and resend the snapshot
  /// once the ACK lands (crash recovery / failover bootstrap).
  void begin_recovery(const char* reason);
  /// Give up on the remote side and finish this inference locally.
  void abandon_remote(const char* reason);
  /// Schedule the local hedge once per inference, if configured.
  void arm_hedge_timer();
  void start_hedge();
  void finish_hedge();
  void on_delivery_failure(const net::Message& message, int attempts);

  // --- Obs plumbing (all single-branch no-ops when config_.obs is null) ---
  /// Open a transmit-up span for a snapshot (re)send and stamp the trace
  /// context onto the outgoing message.
  void mark_snapshot_send(net::Message& msg, const char* label);
  /// Close the root inference span at *timeline_.finished, record final
  /// attrs and client metrics. Called everywhere `timeline_.finished` is
  /// assigned; idempotent per inference.
  void finish_trace();
  /// Bump a counter if an obs sink is attached.
  void count(const char* key) {
    if (obs_) obs_->metrics.add(key);
  }

  sim::Simulation& sim_;
  ClientConfig config_;
  AppBundle bundle_;
  std::shared_ptr<ModelStore> local_store_;
  /// The files a pre-send ships (see the constructor); they share the
  /// local store's buffers, except rear-only weights.
  std::vector<nn::ModelFile> send_files_;
  std::unique_ptr<BrowserHost> browser_;
  ClientTimeline timeline_;
  std::vector<ClientTimeline> history_;
  bool started_ = false;
  bool awaiting_result_ = false;
  bool overlay_sent_ = false;
  /// Copy of the in-flight snapshot, for re-send after on-demand install,
  /// a differential version miss, or any supervised retry.
  std::optional<net::Message> inflight_snapshot_;
  /// Common state shared with the server (differential snapshots).
  std::optional<jsvm::RealmFingerprint> baseline_;
  net::BandwidthEstimator bandwidth_{30e6};

  // --- Partition-controller state ---
  std::optional<ctrl::CutController> controller_;
  /// The decision governing the current inference (unset under static).
  std::optional<ctrl::Decision> decision_;
  bool decision_recorded_ = false;
  /// A re-cut chosen during backoff, performed when the wait elapses.
  std::optional<ctrl::Decision> pending_recut_;

  // --- Server candidate state ---
  /// Attached servers; [0] is the constructor endpoint. Parallel to
  /// model_sent_ and breakers_.
  std::vector<net::Endpoint*> servers_;
  std::size_t active_server_ = 0;
  std::vector<char> model_sent_;  ///< char: vector<bool> has no refs
  std::vector<CircuitBreaker> breakers_;
  /// Candidate order for the current inference (route hook output, or the
  /// natural 0..N-1). Failover walks it in wrap order after the active.
  std::vector<std::size_t> candidates_;

  // --- Supervisor state ---
  std::optional<RetryBackoff> backoff_;
  SupervisorStats sup_stats_;
  Phase phase_ = Phase::kIdle;
  sim::EventHandle phase_timer_;
  sim::EventHandle hedge_timer_;         ///< fires start_hedge
  sim::EventHandle hedge_finish_timer_;  ///< fires finish_hedge
  bool hedge_running_ = false;
  double hedge_exec_s_ = 0;
  sim::SimTime hedge_finish_at_;  ///< when the running hedge will finish
  /// A model upload is awaiting its ACK from the *active* server (unlike
  /// timeline_.ack_received, this re-arms on recovery re-presends).
  bool awaiting_ack_ = false;
  int attempts_ = 0;          ///< snapshot sends this inference
  int presend_attempts_ = 0;  ///< model sends toward the current ACK
  bool resend_snapshot_on_ack_ = false;
  /// A captured snapshot is parked until the dedup pre-send resolves into
  /// an ACK; its first send is not a retry.
  bool hold_snapshot_for_ack_ = false;
  bool done_notified_ = false;  ///< on_inference_done fired this inference
  bool ignore_late_result_ = false;
  std::optional<sim::SimTime> recovery_started_;

  // --- Obs state ---
  obs::Obs* obs_ = nullptr;             ///< = config_.obs
  obs::TraceId trace_ = 0;              ///< current inference's trace
  obs::SpanId root_span_ = 0;           ///< open kInference span (0 = closed)
  obs::SpanId up_span_ = 0;             ///< open kTransmitUp span
  obs::SpanId presend_span_ = 0;        ///< open kPresend span (trace 0)
  obs::SpanId recovery_span_ = 0;       ///< open kCrashRecovery span
  sim::SimTime hedge_started_at_;       ///< start of the running hedge
};

}  // namespace offload::edge
