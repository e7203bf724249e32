// The generic edge server. It runs the offloading server program: accepts
// pre-sent model files (ACKing them) into its one model store, answers
// digest offers from that store's dedup index, executes incoming snapshots
// on its browser, and returns result snapshots. If the offloading system is not
// installed, it can be installed on demand by a VM overlay (VM synthesis,
// Section III.B.3).
//
// All processing costs are charged in simulated time: the reply to a
// message is scheduled at arrival + (restore + execute + capture) computed
// from the server's device profile and the real byte/FLOP counts.
//
// Faults (driven by src/fault, or scheduled directly): the server can
// *crash* — go down for a while, losing the model store, the
// differential-snapshot session cache, and every in-flight execution — and
// *stall*, deferring message processing for a stretch of simulated time.
// A restarted server is detected by clients through the existing
// handshakes: differential snapshots miss their base version ("need_full")
// and snapshots whose model was wiped get a "model_missing" reply, which
// the offload supervisor answers by re-pre-sending the model.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/edge/browser_host.h"
#include "src/edge/model_store.h"
#include "src/edge/protocol.h"
#include "src/net/channel.h"
#include "src/serve/scheduler.h"
#include "src/sim/simulation.h"
#include "src/vmsynth/overlay.h"

namespace offload::edge {

struct EdgeServerConfig {
  nn::DeviceProfile profile = nn::DeviceProfile::edge_server();
  /// Whether the offloading system (browser + server program + libs) is
  /// already installed. When false, model/snapshot messages are refused
  /// with a "not_installed" control reply until a VM overlay arrives.
  bool offloading_system_installed = true;
  /// Disk rate for persisting pre-sent model files (affects ACK time).
  double store_Bps = 400e6;
  /// Keep per-app session realms so repeat offloads can send differential
  /// snapshots (the paper's Section VI future work).
  bool keep_sessions = true;
  /// Send "accepted:" when a snapshot is admitted and "done:" when its
  /// execution completes (just before the result), so a supervising
  /// client can watch per-phase deadlines. Off by default: the degenerate
  /// protocol stays byte-identical to the paper runs.
  bool ack_snapshots = false;
  /// Queued snapshot executions are cancelled if still waiting for a lane
  /// this long after arrival; the client gets an "expired:" control reply
  /// (deadline-aware cancellation in the serving scheduler). Zero = never.
  sim::SimTime queue_deadline = sim::SimTime::zero();
  jsvm::SnapshotOptions snapshot_options;
  /// Compute-scheduler knobs: replica lanes and the admission bound (0 =
  /// never shed). The default (1 replica, unbounded) reproduces the
  /// original FIFO compute reservation bit-for-bit.
  serve::SchedulerConfig scheduler;
  /// Observability sink (optional, shared with the client and channel so
  /// spans from all actors land in one trace). The scheduler inherits it.
  obs::Obs* obs = nullptr;
  /// Metric-key and span-resource prefix, so a primary and a secondary
  /// server can share one registry without colliding.
  std::string obs_name = "server";
};

/// A job an overloaded (or deadline-missing) edge hands to the tier
/// topology instead of shedding: everything an up-tier executor needs to
/// run it and reply transparently to the original client. The snapshot is
/// self-contained, so `payload` plus the origin's pre-sent model files is
/// the whole session.
struct EscalationRequest {
  std::string app;
  util::SharedBytes payload;  ///< encoded SnapshotPayload, verbatim
  net::Endpoint* reply_to = nullptr;  ///< the client-facing b-side endpoint
  obs::TraceContext ctx;
  const char* reason = "";    ///< "overloaded" or "expired"
};

/// Per-offload server-side timing, for the Fig. 7 breakdown.
struct ServerExecutionRecord {
  sim::SimTime received_at;
  double queue_wait_s = 0;  ///< waited for earlier requests (contention)
  double restore_s = 0;   ///< parse+run the incoming snapshot
  double execute_s = 0;   ///< DNN execution on the server browser
  double capture_s = 0;   ///< producing the result snapshot
  std::uint64_t snapshot_in_bytes = 0;
  std::uint64_t snapshot_out_bytes = 0;
  jsvm::SnapshotStats result_stats;

  double busy_s() const { return restore_s + execute_s + capture_s; }
};

class EdgeServer {
 public:
  EdgeServer(sim::Simulation& sim, net::Endpoint& endpoint,
             EdgeServerConfig config = {});

  /// Serve an additional client (its own channel). Replies go back on the
  /// endpoint the request arrived on. Snapshot executions from all clients
  /// share — and queue on — the server's compute. Every attached endpoint
  /// (including the constructor's) must outlive the server and any pending
  /// simulation events it scheduled.
  void attach(net::Endpoint& endpoint);

  /// Crash at simulated time `at`: the server goes down, drops the model
  /// store, session cache, and every in-flight execution (their replies
  /// are never sent), and restarts cold `downtime` later. Messages that
  /// arrive while down are dropped on the floor — the sender never hears
  /// back, exactly like a dead host; only a supervisor deadline notices.
  void schedule_crash(sim::SimTime at, sim::SimTime downtime);

  /// Freeze message processing during [at, at+duration): arrivals in that
  /// window are handled when the stall ends (models GC pauses, contention
  /// from co-located tenants, thermal throttling).
  void schedule_stall(sim::SimTime at, sim::SimTime duration);

  /// Tier hook: offered every job this server would otherwise shed at
  /// admission or cancel at its queue deadline (non-differential snapshots
  /// only — differential ones are meaningless without this server's
  /// session realm). Return true to take ownership: the server then never
  /// sheds/expires the job, and the handler owes the client exactly one
  /// result or typed failure on `reply_to`.
  void set_escalation_handler(std::function<bool(EscalationRequest)> handler) {
    escalate_ = std::move(handler);
  }

  /// A queued snapshot job withdrawn for work stealing or migration. An
  /// empty `payload` marks a differential job: it cannot run elsewhere, so
  /// the drain path redirects its client instead of relaying it.
  struct MigratableJob {
    std::uint64_t id = 0;
    std::string app;
    util::SharedBytes payload;
    net::Endpoint* reply_to = nullptr;
    obs::TraceContext ctx;
    bool differential = false;
  };

  /// Withdraw the oldest still-queued snapshot job (smallest scheduler id
  /// whose cancel() succeeds). With `relayable_only`, differential jobs
  /// are skipped — a thief can only run self-contained snapshots. The
  /// caller owns the job's fate: this server will never reply for it.
  std::optional<MigratableJob> steal_job(bool relayable_only);

  /// Queued snapshot jobs currently eligible for steal_job().
  std::size_t migratable_jobs() const { return migratable_.size(); }

  /// Tier hook: fires after every snapshot admission (the job just joined
  /// the queue). The work-stealing scheduler arms its tick off this, so
  /// ticks exist only while there is load and the simulation can quiesce.
  void set_admission_hook(std::function<void()> hook) {
    on_admit_ = std::move(hook);
  }

  bool installed() const { return config_.offloading_system_installed; }
  /// True while crashed (between a crash and its restart).
  bool down() const { return down_; }
  /// Whether this server sends "accepted:"/"done:" receipts (tier relays
  /// mirror the origin's receipt behavior toward the client).
  bool acks() const { return config_.ack_snapshots; }
  /// Crash counter; work captured under an older epoch must stay silent.
  std::uint64_t boot_epoch() const { return boot_epoch_; }
  /// The pre-sent model files, and the dedup index over every file any
  /// client uploaded since the last crash. Non-const for digest lookups
  /// (the tier offers from it) and the corrupt_blob() test hook.
  ModelStore& model_store() { return *store_; }
  const ModelStore& model_store() const { return *store_; }

  struct Stats {
    int models_stored = 0;
    int snapshots_executed = 0;
    int diff_snapshots_applied = 0;
    int diff_version_misses = 0;
    int overlays_installed = 0;
    int refused = 0;
    int snapshots_shed = 0;  ///< load-shed by scheduler admission control
    int crashes = 0;
    int restarts = 0;
    int dropped_while_down = 0;   ///< messages that hit a dead server
    int stalled_messages = 0;     ///< arrivals deferred by a stall
    int corrupt_rejected = 0;     ///< payload CRC mismatches rejected
    int model_missing_replies = 0;
    int snapshots_rejected = 0;   ///< failed to decode, parse or run
    int presends_rejected = 0;    ///< intact but malformed pre-send bodies
    int jobs_expired = 0;         ///< queue-deadline cancellations
    int snapshots_escalated = 0;  ///< jobs handed up-tier instead of shed
    int jobs_migrated = 0;        ///< queued jobs withdrawn via steal_job()
    int model_offers = 0;         ///< kModelOffer pre-sends received
    int dedup_hit_files = 0;      ///< offered files served from the cache
    int dedup_miss_files = 0;     ///< offered files requested in full
    int dedup_corrupt_blobs = 0;  ///< cached blobs failing their CRC check
    std::uint64_t dedup_bytes_saved = 0;  ///< upload bytes skipped via cache
    double vm_synthesis_compute_s = 0;
  };
  const Stats& stats() const { return stats_; }
  const std::vector<ServerExecutionRecord>& executions() const {
    return executions_;
  }

  /// The realm that ran the last snapshot (inspection/tests). With
  /// keep_sessions on, this is the live session realm.
  BrowserHost* last_browser() { return last_browser_; }

  /// The compute scheduler all snapshot executions queue on. Exposed so
  /// the tier and the controller can read its load and tests can inspect
  /// its shedding stats.
  serve::Scheduler& scheduler() { return *scheduler_; }
  const serve::Scheduler& scheduler() const { return *scheduler_; }

 private:
  void on_message(net::Endpoint& from, const net::Message& message);
  void handle_model_files(net::Endpoint& from, const net::Message& message,
                          ModelFilesPayload payload);
  void handle_model_offer(net::Endpoint& from, const net::Message& message);
  void handle_snapshot(net::Endpoint& from, const net::Message& message);
  void handle_overlay(net::Endpoint& from, const net::Message& message);
  void refuse(net::Endpoint& from, const net::Message& message);
  /// Reply "rejected:<app>" to a snapshot that failed to decode, parse or
  /// run.
  void reject_snapshot(net::Endpoint& from, const net::Message& message);
  /// Reply "rejected:<app>" to a kModelFiles or kModelOffer body that
  /// arrived as sent but does not decode; nothing is stored.
  void reject_presend(net::Endpoint& from, const net::Message& message);
  /// Offer a would-be-shed/expired job to the escalation handler. True =
  /// the handler took it (stats and marker recorded); the caller must not
  /// shed or reply.
  bool try_escalate(net::Endpoint& from, const std::string& app,
                    util::SharedBytes payload, obs::TraceContext ctx,
                    const char* reason);
  void send_control(net::Endpoint& to, const std::string& name,
                    util::Bytes payload = {});
  std::unique_ptr<serve::Scheduler> make_scheduler() const;
  /// Bump the counter "<obs_name>.<key>" if an obs sink is attached.
  void count(const char* key) {
    if (config_.obs) config_.obs->metrics.add(config_.obs_name + "." + key);
  }

  sim::Simulation& sim_;
  EdgeServerConfig config_;
  std::unique_ptr<serve::Scheduler> scheduler_;
  /// Schedulers retired by a crash: their in-flight completions still fire
  /// (and are suppressed by the epoch check), so they must stay alive.
  std::vector<std::unique_ptr<serve::Scheduler>> retired_schedulers_;
  std::shared_ptr<ModelStore> store_;
  std::unique_ptr<BrowserHost> browser_;
  BrowserHost* last_browser_ = nullptr;
  /// Session kept from the last offload of each app: the realm plus the
  /// fingerprint version the client and server share.
  struct Session {
    std::unique_ptr<BrowserHost> browser;
    std::uint64_t version = 0;
  };
  std::unordered_map<std::string, Session> sessions_;
  /// Still-queued snapshot jobs by scheduler id (ascending = admission
  /// order), each holding enough to re-run elsewhere. Entries leave when
  /// the job dispatches, expires, is stolen, or the server crashes.
  std::map<std::uint64_t, MigratableJob> migratable_;
  std::function<bool(EscalationRequest)> escalate_;
  std::function<void()> on_admit_;
  /// The ~21 MB VM base image overlays apply to, built by the first
  /// overlay: most servers never receive one.
  std::optional<vmsynth::VmImage> base_image_;
  std::optional<vmsynth::VmImage> synthesized_;
  bool down_ = false;
  sim::SimTime stall_until_;
  /// Incremented on every crash; delayed replies check it so work started
  /// before a crash never speaks for the restarted server.
  std::uint64_t boot_epoch_ = 0;
  Stats stats_;
  std::vector<ServerExecutionRecord> executions_;
};

}  // namespace offload::edge
