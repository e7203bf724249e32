#include "src/edge/client_device.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/jsvm/snapshot.h"
#include "src/util/logging.h"
#include "src/util/strings.h"
#include "src/vmsynth/overlay.h"
#include "src/vmsynth/vmimage.h"

namespace offload::edge {

ClientDevice::ClientDevice(sim::Simulation& sim, net::Endpoint& endpoint,
                           ClientConfig config, AppBundle bundle)
    : sim_(sim),
      config_(std::move(config)),
      bundle_(std::move(bundle)),
      local_store_(std::make_shared<ModelStore>()) {
  if (!bundle_.network) {
    throw std::invalid_argument("ClientDevice: app bundle has no network");
  }
  obs_ = config_.obs;
  // The client owns the full, trained model and keeps it: its store serves
  // this network, so loadModel never parses the client's own files. The
  // store holds only what a pre-send ships, written once into the framed
  // kModelFiles body every pre-send shares: the full bundle, or its rear
  // weights only when the front stays on the device. An adaptive
  // controller may re-cut shallower than the click-time cut, so it needs
  // the full weights.
  const bool rear_only = !controller_active() && config_.presend_rear_only &&
                         config_.partition_cut != SIZE_MAX;
  ModelFilesPayload::Written presend = ModelFilesPayload::write(
      *bundle_.network, rear_only ? config_.partition_cut : SIZE_MAX);
  presend_body_ = std::move(presend.body);
  local_store_->store_files(std::move(presend.files));
  local_store_->keep_network(bundle_.network->name(), bundle_.network);
  browser_ = std::make_unique<BrowserHost>(config_.profile, local_store_);
  browser_->add_image("input", bundle_.input_image);
  if (supervising()) backoff_.emplace(config_.supervisor);
  attach_server(endpoint);
}

std::size_t ClientDevice::attach_server(net::Endpoint& endpoint) {
  servers_.push_back(&endpoint);
  model_sent_.push_back(0);
  breakers_.emplace_back(config_.supervisor);
  endpoint.set_handler([this](const net::Message& m) { on_message(m); });
  if (supervising()) {
    endpoint.set_failure_handler(
        [this](const net::Message& m, int attempts) {
          on_delivery_failure(m, attempts);
        });
  }
  return servers_.size() - 1;
}

void ClientDevice::open_presend_span(net::Message& msg, const char* kind,
                                     const char* counter) {
  if (!obs_) return;
  // One kPresend span per model send toward an ACK, on the session trace.
  // A re-send supersedes (closes) the previous open span.
  if (presend_span_) obs_->trace.close(presend_span_, sim_.now());
  presend_span_ =
      obs_->trace.open(0, 0, obs::SpanKind::kPresend, kind + bundle_.name,
                       "client/protocol", sim_.now());
  msg.ctx = {0, presend_span_, 0};
  obs_->metrics.add(counter);
}

void ClientDevice::send_model_files(bool count_as_presend) {
  if (model_sent()) return;
  model_sent() = true;
  awaiting_ack_ = true;
  net::Message msg;
  msg.name = bundle_.name;
  if (config_.dedup_presend) {
    // Content-addressed pre-send: ship digests, not bodies. The server
    // answers "have:<app>" (an ACK) when its model store covers the bundle,
    // or "send_files:<app>" naming the files it needs uploaded in full.
    ModelOfferPayload payload;
    for (const nn::ModelFile& f : local_store_->files()) {
      payload.files.push_back({f.name, local_store_->digest(f), f.size()});
    }
    msg.type = net::MessageType::kModelOffer;
    msg.payload = payload.encode();
  } else {
    msg.type = net::MessageType::kModelFiles;
    msg.payload = presend_body_;
  }
  timeline_.model_upload_bytes = msg.payload.size();
  if (count_as_presend) timeline_.model_upload_started = sim_.now();
  if (config_.dedup_presend) {
    open_presend_span(msg, "offer:", "client.model_offers");
  } else {
    open_presend_span(msg, "presend:", "client.model_sends");
  }
  active_endpoint().send(std::move(msg));
}

void ClientDevice::resend_model() {
  model_sent() = false;
  send_model_files(/*count_as_presend=*/false);
  arm_phase(Phase::kPresend, config_.supervisor.presend_deadline);
}

void ClientDevice::send_requested_files(const FileListPayload& request) {
  // The server's cache missed (some of) the offer: upload exactly the
  // files it asked for. The ACK still arrives through the normal
  // post-store path, so the pre-send span stays open until then.
  ModelFilesPayload payload;
  for (const nn::ModelFile& f : local_store_->files()) {
    for (const auto& name : request.names) {
      if (f.name == name) {
        payload.files.push_back(f);
        break;
      }
    }
  }
  net::Message msg;
  msg.type = net::MessageType::kModelFiles;
  msg.name = bundle_.name;
  msg.payload = payload.encode();
  timeline_.model_upload_bytes += msg.payload.size();
  if (obs_) {
    msg.ctx = {0, presend_span_, 0};
    obs_->metrics.add("client.model_sends");
  }
  active_endpoint().send(std::move(msg));
}

void ClientDevice::send_overlay() {
  // Build a VM overlay carrying the offloading system plus the model
  // files, so installation doubles as pre-sending.
  vmsynth::VmImage base = vmsynth::make_base_image();
  std::vector<std::pair<std::string, util::Bytes>> model_files;
  for (const nn::ModelFile& f : local_store_->files()) {
    model_files.emplace_back(f.name,
                             util::Bytes(f.bytes().begin(), f.bytes().end()));
  }
  vmsynth::VmImage customized = vmsynth::make_customized_image(
      base, config_.overlay_sizes, model_files);
  vmsynth::VmOverlay overlay = vmsynth::create_overlay(base, customized);

  net::Message msg;
  msg.type = net::MessageType::kVmOverlay;
  msg.name = bundle_.name;
  msg.payload = std::move(overlay.payload);
  open_presend_span(msg, "overlay:", "client.overlay_sends");
  active_endpoint().send(std::move(msg));
  model_sent() = true;  // the overlay carried the model files
  timeline_.model_upload_started = sim_.now();
}

void ClientDevice::start() {
  if (started_) throw std::logic_error("ClientDevice::start called twice");
  started_ = true;
  timeline_.app_started = sim_.now();

  if (config_.offload && config_.partition_cut != SIZE_MAX) {
    browser_->set_partition_cut(bundle_.name, config_.partition_cut);
  }
  browser_->interp().eval_program(bundle_.source, bundle_.name);
  browser_->interp().run_events();
  browser_->consume_compute_seconds();  // app-start compute is not measured

  if (config_.offload && config_.presend_model) {
    send_model_files(/*count_as_presend=*/true);
    presend_attempts_ = 1;
    arm_phase(Phase::kPresend, config_.supervisor.presend_deadline);
  }
}

void ClientDevice::click_at(sim::SimTime at) {
  sim_.schedule_at(at, [this] { begin_inference(); });
}

// ---------------------------------------------------------------------------
// Partition controller
// ---------------------------------------------------------------------------

void ClientDevice::ensure_controller() {
  if (controller_) return;
  const nn::Network* nets[] = {bundle_.network.get()};
  controller_.emplace(
      config_.controller, bundle_.network,
      nn::LayerCostModel::profile_device(config_.profile, nets),
      nn::LayerCostModel::profile_device(nn::DeviceProfile::edge_server(),
                                         nets));
}

ctrl::LinkSignals ClientDevice::gather_signals(std::size_t server) {
  ctrl::LinkSignals s;
  if (config_.signals) s = config_.signals(server);
  if (s.bandwidth_bps <= 0) s.bandwidth_bps = bandwidth_.estimate_bps();
  return s;
}

void ClientDevice::apply_decision(ctrl::Decision decision,
                                  const char* origin) {
  decision_ = decision;
  decision_recorded_ = false;
  if (decision.local) {
    // The controller says local execution wins under current conditions.
    // The app still needs a valid cut for its inference_front/rear calls.
    timeline_.local_fallback = true;
    std::size_t local_cut = config_.partition_cut != SIZE_MAX
                                ? config_.partition_cut
                                : bundle_.network->cut_points().front();
    browser_->set_partition_cut(bundle_.name, local_cut);
    timeline_.used_partition_cut = local_cut;
  } else {
    browser_->set_partition_cut(bundle_.name, decision.cut);
    timeline_.used_partition_cut = decision.cut;
  }
  count("ctrl.decisions");
  if (decision.local) count("ctrl.local_decisions");
  if (obs_) {
    obs::SpanId s = obs_->trace.emit(
        trace_, root_span_, obs::SpanKind::kCtrlDecision,
        std::string("ctrl:") + origin, "client", sim_.now(), sim_.now(), 0.0);
    obs_->trace.attr(s, "policy", policy_name(config_.controller.policy));
    obs_->trace.attr(s, "cut", static_cast<std::int64_t>(decision.cut));
    obs_->trace.attr(s, "local",
                     static_cast<std::int64_t>(decision.local ? 1 : 0));
    obs_->trace.attr(s, "server",
                     static_cast<std::int64_t>(decision.server));
  }
}

void ClientDevice::record_decision(bool ok, double observed_s) {
  if (!controller_ || !decision_ || decision_recorded_) return;
  decision_recorded_ = true;
  ctrl::Outcome o;
  o.server = decision_->server;
  o.arm = decision_->arm;
  o.local = decision_->local;
  o.ok = ok;
  o.observed_s = observed_s;
  o.predicted_s = decision_->predicted_s;
  controller_->record(o);
}

std::optional<ctrl::Decision> ClientDevice::plan_recut() {
  if (!controller_active() || !controller_ || !decision_) return std::nullopt;
  // After a hedge the realm has consumed the deferred event — the front
  // cannot be re-run; and full-inference offloads have nothing to re-cut.
  if (hedge_running_) return std::nullopt;
  if (!awaiting_result_ || !inflight_snapshot_) return std::nullopt;
  if (timeline_.used_partition_cut == SIZE_MAX) return std::nullopt;
  ctrl::Decision d = controller_->redecide(
      active_server_, gather_signals(active_server_), attempts_);
  if (!d.local && d.cut == timeline_.used_partition_cut) {
    return std::nullopt;  // same cut: a plain retry is cheaper
  }
  return d;
}

void ClientDevice::perform_recut(const ctrl::Decision& decision) {
  if (!awaiting_result_ || !inflight_snapshot_ || hedge_running_) return;
  // The superseded decision pays for the time burned on it so far.
  record_decision(false, (sim_.now() - timeline_.clicked).to_seconds());
  decision_ = decision;
  decision_recorded_ = false;
  if (decision.local) {
    // The controller prices the remote side out entirely: the local
    // decision governs the finish.
    count("ctrl.recuts_local");
    abandon_remote("controller chose local");
    return;
  }
  count("ctrl.recuts");
  OFFLOAD_LOG_INFO << "client: re-cutting in flight to node " << decision.cut;
  if (obs_) {
    obs::SpanId s = obs_->trace.emit(
        trace_, root_span_, obs::SpanKind::kCtrlDecision, "ctrl:recut",
        "client", sim_.now(), sim_.now(), 0.0);
    obs_->trace.attr(s, "policy", policy_name(config_.controller.policy));
    obs_->trace.attr(s, "cut", static_cast<std::int64_t>(decision.cut));
    obs_->trace.attr(s, "server",
                     static_cast<std::int64_t>(decision.server));
  }

  // The deferred offload event is stale (it carries the old cut's feature
  // state): drop it, re-run the front at the new cut, and recapture. The
  // recompute is charged honestly — a re-cut is only worth it when the
  // saved transfer outweighs it.
  jsvm::Interpreter& interp = browser_->interp();
  interp.pop_front_event();
  browser_->set_partition_cut(bundle_.name, decision.cut);
  timeline_.used_partition_cut = decision.cut;
  jsvm::DomNodePtr target =
      interp.document().get_element_by_id(bundle_.click_target);
  if (!target) {
    abandon_remote("recut: no click target");
    return;
  }
  interp.enqueue_event(std::move(target), "click", jsvm::Undefined{});
  const double exec_s = execute(/*defer_offload=*/true, "exec_recut");
  const sim::SimTime exec_end = sim_.now() + sim::SimTime::seconds(exec_s);
  if (!interp.take_pending_offload()) {
    // The app ran to completion locally (no offload event at the new cut).
    timeline_.local_fallback = true;
    timeline_.offloaded = false;
    clear_inflight();
    cancel_supervision_timers();
    timeline_.finished = exec_end;
    finish_trace();
    return;
  }
  CapturedSnapshot snap =
      capture_message(/*differential=*/false, exec_end, /*recapture=*/true);
  inflight_snapshot_ = std::move(snap.msg);
  baseline_.reset();  // the re-run front invalidated the shared baseline
  sim_.schedule(sim::SimTime::seconds(exec_s + snap.capture_s), [this] {
    if (!awaiting_result_ || !inflight_snapshot_) return;
    // A failover that landed on a cold server presends first; the ACK
    // replays the refreshed snapshot.
    resend_or_recover("recut on cold server");
  });
}

void ClientDevice::apply_route() {
  candidates_.clear();
  for (std::size_t i = 0; i < servers_.size(); ++i) candidates_.push_back(i);
  if (!config_.route) return;
  std::vector<std::size_t> order = config_.route(history_.size());
  std::vector<std::size_t> valid;
  for (std::size_t id : order) {
    if (id >= servers_.size()) continue;
    bool dup = false;
    for (std::size_t seen : valid) {
      if (seen == id) {
        dup = true;
        break;
      }
    }
    if (!dup) valid.push_back(id);
  }
  if (valid.empty()) return;
  candidates_ = std::move(valid);
  if (candidates_.front() != active_server_) {
    switch_server(candidates_.front());
  }
}

void ClientDevice::switch_server(std::size_t index) {
  active_server_ = index;
  timeline_.server_index = static_cast<int>(index);
  baseline_.reset();  // sessions do not migrate between servers
}

void ClientDevice::notify_done() {
  if (done_notified_ || !timeline_.finished) return;
  done_notified_ = true;
  if (config_.on_inference_done) {
    config_.on_inference_done(active_server_, timeline_.offloaded);
  }
}

void ClientDevice::begin_inference() {
  if (timeline_.finished) {
    // Archive the previous inference and start a fresh per-inference
    // record, keeping app-level fields (start, upload, ACK).
    history_.push_back(timeline_);
    ClientTimeline next;
    next.app_started = timeline_.app_started;
    next.model_upload_started = timeline_.model_upload_started;
    next.ack_received = timeline_.ack_received;
    next.model_upload_bytes = timeline_.model_upload_bytes;
    timeline_ = std::move(next);
  }
  timeline_.clicked = sim_.now();
  timeline_.used_partition_cut = config_.partition_cut;
  apply_route();
  timeline_.server_index = static_cast<int>(active_server_);
  if (obs_) {
    // A still-open root (an inference that never finished) is closed at
    // the new click rather than leaking.
    if (root_span_) obs_->trace.close(root_span_, sim_.now());
    trace_ = obs_->trace.new_trace();
    root_span_ = obs_->trace.open(
        trace_, 0, obs::SpanKind::kInference,
        "inference#" + std::to_string(history_.size() + 1), "client",
        sim_.now());
    up_span_ = 0;
    recovery_span_ = 0;
  }

  // Per-inference supervisor state.
  attempts_ = 0;
  hedge_running_ = false;
  hedge_exec_s_ = 0;
  ignore_late_result_ = false;
  resend_snapshot_on_ack_ = false;
  hold_snapshot_for_ack_ = false;
  done_notified_ = false;
  recovery_started_.reset();
  cancel_supervision_timers();
  decision_.reset();
  decision_recorded_ = false;
  pending_recut_.reset();

  if (controller_active()) {
    ensure_controller();
    apply_decision(
        controller_->decide(active_server_, gather_signals(active_server_)),
        "click");
  }

  jsvm::DomNodePtr target =
      browser_->interp().document().get_element_by_id(bundle_.click_target);
  if (!target) {
    throw std::runtime_error("ClientDevice: no element '" +
                             bundle_.click_target + "' to click");
  }
  browser_->interp().enqueue_event(std::move(target), "click",
                                   jsvm::Undefined{});
  run_app_events();
}

double ClientDevice::run_realm(bool defer_offload) {
  jsvm::Interpreter& interp = browser_->interp();
  if (defer_offload) {
    interp.offload_hook = [this](const jsvm::PendingEvent& ev) {
      return ev.type == config_.offload_event;
    };
  } else {
    interp.offload_hook = nullptr;
  }
  {
    obs::ScopedMetrics nn_metrics(obs_ ? &obs_->metrics : nullptr);
    interp.run_events();
  }
  return browser_->consume_compute_seconds();
}

double ClientDevice::execute(bool defer_offload, const char* label) {
  const double exec_s = run_realm(defer_offload);
  timeline_.client_exec_s += exec_s;
  if (obs_) {
    obs_->trace.emit(trace_, root_span_, obs::SpanKind::kClientExec, label,
                     "client", sim_.now(),
                     sim_.now() + sim::SimTime::seconds(exec_s), exec_s);
  }
  return exec_s;
}

void ClientDevice::run_locally() {
  const double exec_s = execute(/*defer_offload=*/false, "exec_local");
  timeline_.finished = sim_.now() + sim::SimTime::seconds(exec_s);
  finish_trace();
}

void ClientDevice::fall_back_locally(const char* reason) {
  if (supervising()) {
    abandon_remote(reason);
    return;
  }
  clear_inflight();
  timeline_.local_fallback = true;
  timeline_.offloaded = false;  // the result never came from the server
  run_locally();
}

void ClientDevice::clear_inflight() {
  awaiting_result_ = false;
  inflight_snapshot_.reset();
  resend_snapshot_on_ack_ = false;
  hold_snapshot_for_ack_ = false;
}

void ClientDevice::run_app_events() {
  bool want_offload = config_.offload && !timeline_.local_fallback;
  if (want_offload && config_.local_fallback_before_ack &&
      !timeline_.ack_received && config_.presend_model) {
    // The model is still uploading; execute locally this time
    // (Section IV.A's recommendation).
    timeline_.local_fallback = true;
    want_offload = false;
  }
  if (want_offload && supervising() &&
      !active_breaker().allow(sim_.now())) {
    // The active server's breaker is open. Route around it: the next
    // candidate whose breaker admits, else local execution for this click.
    std::size_t next = next_usable_server();
    if (next != servers_.size()) {
      ++sup_stats_.failovers;
      count("supervisor.failovers");
      OFFLOAD_LOG_WARN << "client: breaker open, routing to server " << next;
      switch_server(next);
    } else {
      ++sup_stats_.breaker_short_circuits;
      count("supervisor.breaker_short_circuits");
      OFFLOAD_LOG_WARN << "client: breaker open, executing locally";
      timeline_.local_fallback = true;
      want_offload = false;
    }
  }
  if (!want_offload) {
    run_locally();
    return;
  }

  const double exec_s = execute(/*defer_offload=*/true, "exec_front");
  const sim::SimTime exec_end = sim_.now() + sim::SimTime::seconds(exec_s);
  if (!browser_->interp().take_pending_offload()) {
    // Ran to completion locally (app never raised the offload event).
    timeline_.finished = exec_end;
    finish_trace();
    return;
  }

  // Offload point reached: capture the snapshot (the pending event is
  // still at the queue front and rides along). Repeat offloads diff
  // against the state the server kept. The capture is charged right after
  // the front execution, so its span abuts the exec span.
  timeline_.offloaded = true;
  CapturedSnapshot snap = capture_message(
      config_.differential_snapshots && baseline_.has_value(), exec_end,
      /*recapture=*/false);
  send_snapshot_message(std::move(snap.msg), exec_s + snap.capture_s);
}

ClientDevice::CapturedSnapshot ClientDevice::capture_message(
    bool differential, sim::SimTime at, bool recapture) {
  jsvm::Interpreter& interp = browser_->interp();
  SnapshotPayload payload;
  payload.cut = timeline_.used_partition_cut == SIZE_MAX
                    ? UINT64_MAX
                    : timeline_.used_partition_cut;
  if (differential) {
    jsvm::DiffSnapshotResult diff = jsvm::capture_snapshot_diff(
        interp, *baseline_, config_.snapshot_options);
    payload.differential = !diff.full_fallback;
    payload.base_version = diff.base_version;
    payload.program = std::move(diff.program);
    timeline_.snapshot_stats = diff.stats;
  } else {
    jsvm::SnapshotResult snap =
        jsvm::capture_snapshot(interp, config_.snapshot_options);
    payload.program = std::move(snap.program);
    timeline_.snapshot_stats = snap.stats;
  }
  timeline_.used_differential = payload.differential;
  const double capture_s = config_.profile.snapshot_capture_s(
      timeline_.snapshot_stats.total_bytes);
  // A recapture adds to the inference's capture time; the first sets it.
  timeline_.capture_s = recapture ? timeline_.capture_s + capture_s
                                  : capture_s;
  if (obs_) {
    obs_->trace.emit(trace_, root_span_, obs::SpanKind::kClientCapture,
                     recapture ? "recapture" : "capture", "client", at,
                     at + sim::SimTime::seconds(capture_s), capture_s);
    if (recapture) obs_->metrics.add("client.recaptures");
  }
  CapturedSnapshot out{net::Message{}, capture_s};
  out.msg.type = net::MessageType::kSnapshot;
  out.msg.name = bundle_.name;
  out.msg.payload = payload.encode();
  timeline_.snapshot_bytes = out.msg.wire_size();
  return out;
}

void ClientDevice::send_snapshot_message(net::Message msg, double busy_s) {
  awaiting_result_ = true;
  sim_.schedule(sim::SimTime::seconds(busy_s), [this,
                                                msg = std::move(msg)]() mutable {
    // No pre-send (or ACK still pending with nothing in flight): the model
    // must accompany the snapshot (Section III.B.1's slow path).
    const bool model_pending = !model_sent();
    send_model_files(/*count_as_presend=*/false);
    inflight_snapshot_ = std::move(msg);
    if (config_.dedup_presend && model_pending) {
      // Dedup slow path: the offer has to resolve into an ACK (cache hit
      // or an upload of the missing files) before the snapshot can run
      // remotely — sent now it would only bounce with "model_missing".
      // Park it; the ACK dispatches it without counting a retry.
      hold_snapshot_for_ack_ = true;
      arm_phase(Phase::kPresend, config_.supervisor.presend_deadline);
    } else {
      dispatch_inflight_snapshot();
    }
    arm_hedge_timer();
  });
}

void ClientDevice::send_inflight(const char* label) {
  timeline_.snapshot_sent = sim_.now();
  mark_snapshot_send(*inflight_snapshot_, label);
  active_endpoint().send(*inflight_snapshot_);
}

void ClientDevice::dispatch_inflight_snapshot() {
  if (!inflight_snapshot_) return;
  ++attempts_;
  send_inflight("snapshot_send");
  if (supervising()) arm_upload_watchdog();
}

// ---------------------------------------------------------------------------
// Supervisor machinery
// ---------------------------------------------------------------------------

void ClientDevice::arm_phase(Phase phase, sim::SimTime deadline) {
  cancel_phase_timer();
  if (!supervising() || deadline == sim::SimTime::zero()) return;
  phase_ = phase;
  phase_timer_ =
      sim_.schedule(deadline, [this, phase] { on_phase_timeout(phase); });
}

void ClientDevice::arm_upload_watchdog() {
  const SupervisorConfig& s = config_.supervisor;
  if (s.expect_phase_acks) {
    arm_phase(Phase::kUpload, s.upload_deadline);
  } else {
    // No per-phase receipts from this server: watch the whole round trip
    // with the summed budget instead.
    arm_phase(Phase::kUpload,
              s.upload_deadline + s.execute_deadline + s.download_deadline);
  }
}

void ClientDevice::cancel_phase_timer() {
  if (phase_timer_.valid()) sim_.cancel(phase_timer_);
  phase_timer_ = sim::EventHandle{};
  phase_ = Phase::kIdle;
}

void ClientDevice::cancel_supervision_timers() {
  cancel_phase_timer();
  if (hedge_timer_.valid()) sim_.cancel(hedge_timer_);
  hedge_timer_ = sim::EventHandle{};
}

void ClientDevice::on_phase_timeout(Phase phase) {
  phase_timer_ = sim::EventHandle{};
  phase_ = Phase::kIdle;
  ++sup_stats_.deadline_expiries;
  count("supervisor.deadline_expiries");
  record_breaker_outcome(/*success=*/false);
  if (phase != Phase::kPresend) {
    retry_snapshot(phase == Phase::kUpload      ? "upload deadline"
                   : phase == Phase::kExecute ? "execution deadline"
                                              : "download deadline");
    return;
  }
  if (!awaiting_ack_) return;  // raced with the ACK
  if (awaiting_result_ && inflight_snapshot_) {
    // A snapshot is riding on this ACK (recovery or the slow path):
    // funnel the whole exchange through the retry policy.
    retry_snapshot("model pre-send deadline");
    return;
  }
  retry_presend_after_backoff();
}

void ClientDevice::retry_presend_after_backoff() {
  if (presend_attempts_ >= config_.supervisor.max_attempts) {
    OFFLOAD_LOG_WARN << "client: model pre-send abandoned after "
                     << presend_attempts_ << " attempts";
    return;  // inferences proceed locally until the server recovers
  }
  sim::SimTime wait = backoff_->delay(presend_attempts_);
  sup_stats_.backoff_wait_s += wait.to_seconds();
  ++sup_stats_.retries;
  count("supervisor.retries");
  if (obs_) {
    // Pre-send backoffs belong to the app session, not any inference:
    // a trace-0 marker, never a kRetryBackoff phase span.
    obs_->trace.marker(0, 0, "presend_backoff", "client/protocol",
                       sim_.now());
  }
  OFFLOAD_LOG_WARN << "client: model ACK missing, re-sending after "
                   << wait.str();
  sim_.schedule(wait, [this] {
    if (!awaiting_ack_) return;
    ++presend_attempts_;
    resend_model();
  });
}

void ClientDevice::retry_snapshot(const char* reason) {
  if (!supervising() || !awaiting_result_) return;
  cancel_phase_timer();
  if (!inflight_snapshot_) {
    abandon_remote(reason);
    return;
  }
  if (attempts_ >= config_.supervisor.max_attempts ||
      !active_breaker().allow(sim_.now())) {
    if (try_failover()) return;
    abandon_remote(reason);
    return;
  }
  if (auto recut = plan_recut()) {
    if (recut->local) {
      perform_recut(*recut);  // finishes locally under the new decision
      return;
    }
    // Re-cut after the backoff wait instead of resending the same bytes.
    pending_recut_ = *recut;
  }
  sim::SimTime wait = backoff_->delay(attempts_);
  sup_stats_.backoff_wait_s += wait.to_seconds();
  timeline_.backoff_wait_s += wait.to_seconds();
  if (obs_) {
    obs_->trace.emit(trace_, root_span_, obs::SpanKind::kRetryBackoff,
                     std::string("backoff:") + reason, "client", sim_.now(),
                     sim_.now() + wait, wait.to_seconds());
  }
  OFFLOAD_LOG_INFO << "client: offload attempt " << attempts_ << " failed ("
                   << reason << "), retrying after " << wait.str();
  sim_.schedule(wait, [this] {
    if (!awaiting_result_ || !inflight_snapshot_) return;
    if (pending_recut_) {
      ctrl::Decision d = *pending_recut_;
      pending_recut_.reset();
      perform_recut(d);
      return;
    }
    resend_inflight();
  });
}

void ClientDevice::resend_inflight() {
  if (!inflight_snapshot_) return;
  hold_snapshot_for_ack_ = false;
  ++attempts_;
  ++sup_stats_.retries;
  ++timeline_.retries;
  count("supervisor.retries");
  count("client.retries");
  send_inflight("snapshot_resend");
  arm_upload_watchdog();
}

void ClientDevice::resend_or_recover(const char* reason) {
  if (model_sent()) {
    resend_inflight();  // this server already holds the model
  } else {
    begin_recovery(reason);
  }
}

void ClientDevice::record_breaker_outcome(bool success) {
  CircuitBreaker& breaker = active_breaker();
  const bool was_tripped =
      breaker.state(sim_.now()) != CircuitBreaker::State::kClosed;
  const int opened_before = breaker.times_opened();
  if (success) {
    breaker.record_success(sim_.now());
  } else {
    breaker.record_failure(sim_.now());
  }
  if (breaker.times_opened() > opened_before) {
    ++sup_stats_.breaker_opens;
    count("supervisor.breaker_opens");
  }
  const bool tripped =
      breaker.state(sim_.now()) != CircuitBreaker::State::kClosed;
  if (obs_ && tripped != was_tripped) {
    obs_->metrics.set_gauge(
        "supervisor.breaker_open.server" + std::to_string(active_server_),
        tripped ? 1 : 0);
  }
}

std::size_t ClientDevice::next_usable_server() {
  if (candidates_.empty()) {
    for (std::size_t i = 0; i < servers_.size(); ++i) candidates_.push_back(i);
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i] == active_server_) {
      pos = i;
      break;
    }
  }
  for (std::size_t step = 1; step <= candidates_.size(); ++step) {
    std::size_t idx = candidates_[(pos + step) % candidates_.size()];
    if (idx == active_server_) continue;
    if (breakers_[idx].allow(sim_.now())) return idx;
  }
  return servers_.size();
}

bool ClientDevice::try_failover() {
  std::size_t next = next_usable_server();
  if (next == servers_.size()) return false;
  ++sup_stats_.failovers;
  count("supervisor.failovers");
  OFFLOAD_LOG_WARN << "client: failing over to server " << next;
  switch_server(next);
  attempts_ = 0;  // fresh retry budget against the new server
  if (auto recut = plan_recut()) {
    // The failover carries a per-server cut override: the new server's
    // load (and our learned corrections for it) may favor another split.
    pending_recut_.reset();
    perform_recut(*recut);  // resends (or recovers) with the new cut
    return true;
  }
  resend_or_recover("failover");
  return true;
}

void ClientDevice::begin_recovery(const char* reason) {
  OFFLOAD_LOG_WARN << "client: recovery (" << reason
                   << "): re-presending model";
  ++sup_stats_.model_represends;
  count("supervisor.model_represends");
  timeline_.recovered = true;
  recovery_started_ = sim_.now();
  if (obs_) {
    // Closed with the exact `spent` charge when the replacement model is
    // ACKed, or with zero charge if the recovery is abandoned.
    if (recovery_span_) obs_->trace.close(recovery_span_, sim_.now(), 0.0);
    recovery_span_ = obs_->trace.open(
        trace_, root_span_, obs::SpanKind::kCrashRecovery,
        std::string("recovery:") + reason, "client", sim_.now());
  }
  baseline_.reset();  // any kept session died with the server
  resend_snapshot_on_ack_ = true;
  presend_attempts_ = 1;
  resend_model();
}

void ClientDevice::abandon_remote(const char* reason) {
  OFFLOAD_LOG_WARN << "client: abandoning offload (" << reason
                   << "), finishing locally";
  ++sup_stats_.local_fallbacks;
  count("supervisor.local_fallbacks");
  if (obs_) {
    obs_->trace.marker(trace_, root_span_, std::string("abandon:") + reason,
                       "client", sim_.now());
  }
  cancel_supervision_timers();
  clear_inflight();
  ignore_late_result_ = true;
  timeline_.local_fallback = true;
  timeline_.offloaded = false;  // the result will not come from a server
  if (hedge_running_) return;  // the running hedge is already the fallback
  run_locally();
}

void ClientDevice::start_hedge() {
  hedge_timer_ = sim::EventHandle{};
  if (!awaiting_result_ || hedge_running_ || timeline_.finished) return;
  ++sup_stats_.hedges_started;
  count("supervisor.hedges_started");
  timeline_.hedged = true;
  hedge_running_ = true;
  hedge_started_at_ = sim_.now();
  OFFLOAD_LOG_INFO << "client: offload past its latency budget, starting "
                      "hedged local execution";
  // The offloaded event is still at the realm's queue front (capture left
  // it in place), so the hedge is simply: stop deferring, run it here.
  hedge_exec_s_ = run_realm(/*defer_offload=*/false);
  hedge_finish_at_ = sim_.now() + sim::SimTime::seconds(hedge_exec_s_);
  hedge_finish_timer_ = sim_.schedule(sim::SimTime::seconds(hedge_exec_s_),
                                      [this] { finish_hedge(); });
}

void ClientDevice::finish_hedge() {
  hedge_finish_timer_ = sim::EventHandle{};
  if (!hedge_running_) return;
  hedge_running_ = false;
  timeline_.client_exec_s += hedge_exec_s_;
  timeline_.finished = sim_.now();
  if (obs_) {
    obs_->trace.emit(trace_, root_span_, obs::SpanKind::kClientExec,
                     "exec_hedge", "client", hedge_started_at_,
                     sim_.now(), hedge_exec_s_);
  }
  if (!awaiting_result_) {
    // Remote was abandoned earlier; this hedge run is the fallback result.
    finish_trace();
    return;
  }
  // The local run beat the server: cancel the remote side of the race.
  ++sup_stats_.hedge_local_wins;
  count("supervisor.hedge_local_wins");
  timeline_.hedge_local_win = true;
  timeline_.local_fallback = true;
  timeline_.offloaded = false;
  record_breaker_outcome(/*success=*/false);
  clear_inflight();
  ignore_late_result_ = true;
  cancel_supervision_timers();
  finish_trace();
}

void ClientDevice::on_delivery_failure(const net::Message& message,
                                       int attempts) {
  if (!supervising()) return;
  OFFLOAD_LOG_WARN << "client: delivery failed for "
                   << net::message_type_name(message.type) << " after "
                   << attempts << " attempt(s)";
  record_breaker_outcome(/*success=*/false);
  if (message.type == net::MessageType::kSnapshot) {
    retry_snapshot("delivery failure");
    return;
  }
  if (message.type == net::MessageType::kModelFiles && awaiting_ack_) {
    retry_presend_after_backoff();
  }
}

void ClientDevice::arm_hedge_timer() {
  if (!supervising() || hedge_running_ || hedge_timer_.valid() ||
      config_.supervisor.hedge_after == sim::SimTime::zero()) {
    return;
  }
  hedge_timer_ = sim_.schedule(config_.supervisor.hedge_after,
                               [this] { start_hedge(); });
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void ClientDevice::on_message(const net::Message& message) {
  using Handler = void (ClientDevice::*)(const net::Message&);
  // Control replies by disjoint name prefix; handlers drop off-phase ones.
  static constexpr std::pair<std::string_view, Handler> kControl[] = {
      {"accepted:", &ClientDevice::on_accepted},
      {"done:", &ClientDevice::on_done},
      {"need_full", &ClientDevice::on_need_full},
      {"redirect:", &ClientDevice::on_redirect},
      {"overloaded", &ClientDevice::on_shed},
      {"expired:", &ClientDevice::on_shed},
      {"model_missing:", &ClientDevice::on_model_missing},
      {"rejected:", &ClientDevice::on_rejected},
      {"send_files:", &ClientDevice::on_send_files},
      {"corrupt_payload:", &ClientDevice::on_corrupt_payload},
      {"not_installed", &ClientDevice::on_not_installed},
  };
  if (message.type == net::MessageType::kAck) return on_ack(message);
  if (message.type == net::MessageType::kResultSnapshot) {
    return on_result(message);
  }
  if (message.type != net::MessageType::kControl) {
    OFFLOAD_LOG_WARN << "client: unexpected message type "
                     << net::message_type_name(message.type);
    return;
  }
  for (const auto& [prefix, handler] : kControl) {
    if (util::starts_with(message.name, prefix)) {
      return (this->*handler)(message);
    }
  }
}

void ClientDevice::on_ack(const net::Message& message) {
  if (obs_ && presend_span_) {
    // The pre-send span covers send -> ACK (store time included).
    obs_->trace.close(presend_span_, sim_.now());
    presend_span_ = 0;
  }
  if (supervising()) {
    awaiting_ack_ = false;
    record_breaker_outcome(/*success=*/true);
    if (phase_ == Phase::kPresend) cancel_phase_timer();
  }
  if (!timeline_.ack_received) {
    timeline_.ack_received = sim_.now();
    // The completed upload doubles as a bandwidth observation
    // (Section III.B.2's "runtime network status").
    if (timeline_.model_upload_bytes > 0) {
      bandwidth_.observe(timeline_.model_upload_bytes,
                         *timeline_.ack_received -
                             timeline_.model_upload_started);
    }
  }
  if (!awaiting_result_ || !inflight_snapshot_) return;
  if (resend_snapshot_on_ack_) {
    // Crash recovery / failover: the model landed on the (re)started
    // server — now replay the snapshot that was in flight.
    resend_snapshot_on_ack_ = false;
    if (recovery_started_) {
      double spent = (sim_.now() - *recovery_started_).to_seconds();
      sup_stats_.recovery_s += spent;
      timeline_.recovery_s += spent;
      recovery_started_.reset();
      if (obs_ && recovery_span_) {
        obs_->trace.close(recovery_span_, sim_.now(), spent);
        recovery_span_ = 0;
      }
    }
    resend_inflight();
  } else if (hold_snapshot_for_ack_) {
    // The dedup pre-send resolved (cache hit or completed upload): the
    // parked snapshot goes out now, as a first send, not a retry.
    hold_snapshot_for_ack_ = false;
    dispatch_inflight_snapshot();
  } else if (util::starts_with(message.name, "installed:")) {
    // Our earlier snapshot was refused pre-install; send it again.
    send_inflight("snapshot_send");
    if (supervising()) arm_upload_watchdog();
  }
}

void ClientDevice::on_result(const net::Message& message) {
  // Close the server's transmit-down span at arrival, even for results
  // about to be discarded — the bytes did land here.
  if (obs_) obs_->trace.close(message.ctx.span, sim_.now());
  if (ignore_late_result_) {
    // This inference already finished locally (hedge win or abandonment);
    // the straggler loses the race.
    OFFLOAD_LOG_INFO << "client: dropping late result snapshot";
    ignore_late_result_ = false;
    return;
  }
  if (!awaiting_result_) {
    OFFLOAD_LOG_WARN << "client: unexpected result snapshot";
    return;
  }
  if (!payload_intact(message)) {
    // Damaged on the downlink. Supervised: treat as one more retryable
    // failure. Unsupervised: surface the typed error.
    if (!supervising()) throw PayloadCorruptError(message);
    record_breaker_outcome(/*success=*/false);
    retry_snapshot("corrupt result payload");
    return;
  }
  SnapshotPayload payload = SnapshotPayload::decode(std::span(message.payload));
  double restore_s = config_.profile.snapshot_restore_s(payload.program.size());
  if (hedge_running_) {
    // Both runners are live: the remote result completes at now + restore;
    // the local hedge at hedge_finish_at_. First finisher takes it.
    if (sim_.now() + sim::SimTime::seconds(restore_s) > hedge_finish_at_) {
      OFFLOAD_LOG_INFO << "client: local hedge will finish first, "
                          "discarding remote result";
      return;  // finish_hedge() completes the inference
    }
    hedge_running_ = false;
    if (hedge_finish_timer_.valid()) sim_.cancel(hedge_finish_timer_);
    hedge_finish_timer_ = sim::EventHandle{};
    timeline_.hedge_wasted_s += hedge_exec_s_;
    ++sup_stats_.hedge_remote_wins;
    count("supervisor.hedge_remote_wins");
  }
  if (supervising()) {
    cancel_supervision_timers();
    record_breaker_outcome(/*success=*/true);
  }
  clear_inflight();
  timeline_.result_received = sim_.now();
  // Adopt the new execution state on a fresh page (the snapshot is a
  // self-contained app).
  browser_->reset_realm();
  if (timeline_.used_partition_cut != SIZE_MAX) {
    browser_->set_partition_cut(bundle_.name, timeline_.used_partition_cut);
  }
  jsvm::restore_snapshot(browser_->interp(), payload.program);
  run_realm(/*defer_offload=*/false);
  if (config_.differential_snapshots) {
    // This restored state is now the baseline both sides share.
    baseline_ = jsvm::fingerprint_realm(browser_->interp());
  }
  timeline_.restore_s = restore_s;
  timeline_.finished = sim_.now() + sim::SimTime::seconds(restore_s);
  if (obs_) {
    obs_->trace.emit(trace_, root_span_, obs::SpanKind::kClientRestore,
                     "restore_result", "client", sim_.now(),
                     *timeline_.finished, restore_s);
  }
  finish_trace();
}

void ClientDevice::on_accepted(const net::Message&) {
  if (!awaiting_result_) return;
  // Upload phase done; the execution clock starts. With the controller on,
  // the receipt doubles as a per-attempt upload bandwidth observation
  // (gated so the static path's estimator state stays bit-identical to the
  // paper reproduction).
  if (controller_active() && timeline_.snapshot_sent &&
      timeline_.snapshot_bytes > 0) {
    bandwidth_.observe(timeline_.snapshot_bytes,
                       sim_.now() - *timeline_.snapshot_sent);
  }
  arm_phase(Phase::kExecute, config_.supervisor.execute_deadline);
}

void ClientDevice::on_done(const net::Message&) {
  // Execution phase done; only the download remains.
  if (awaiting_result_) {
    arm_phase(Phase::kDownload, config_.supervisor.download_deadline);
  }
}

void ClientDevice::on_need_full(const net::Message&) {
  if (!awaiting_result_) return;
  if (hedge_running_) {
    // The realm already ran the handler locally — we cannot recapture it.
    // Let the hedge finish the inference.
    abandon_remote("session lost during hedge");
    return;
  }
  // The server lost (or never had) our differential baseline: the realm is
  // untouched since capture, so take a full snapshot and retry.
  OFFLOAD_LOG_INFO << "client: server needs a full snapshot, resending";
  CapturedSnapshot snap = capture_message(/*differential=*/false, sim_.now(),
                                          /*recapture=*/true);
  awaiting_result_ = false;  // send_snapshot_message re-arms it
  send_snapshot_message(std::move(snap.msg), snap.capture_s);
}

void ClientDevice::on_redirect(const net::Message& message) {
  if (!awaiting_result_) return;
  // The server is draining its queue (tier migration): it names a peer
  // that should finish this inference. Our session realm did not travel —
  // the peer gets a fresh model push and a replayed self-contained
  // snapshot; the redirect is just a failover whose target the server
  // chose for us.
  std::size_t target = servers_.size();
  const std::string name = message.name.substr(9);
  std::size_t colon = name.find(':');
  if (colon != std::string::npos) {
    target = static_cast<std::size_t>(
        std::strtoul(name.substr(0, colon).c_str(), nullptr, 10));
  }
  if (!supervising() || !inflight_snapshot_) {
    OFFLOAD_LOG_WARN << "client: redirected without a usable inflight "
                        "snapshot, falling back locally";
    fall_back_locally("redirect without snapshot");
    return;
  }
  cancel_phase_timer();
  if (target >= servers_.size() || target == active_server_ ||
      !breakers_[target].allow(sim_.now())) {
    // The named target is unusable (bad index, open breaker): fall into
    // the ordinary retry/failover policy instead.
    retry_snapshot("redirect to unusable server");
    return;
  }
  OFFLOAD_LOG_INFO << "client: server redirected us to server " << target;
  ++sup_stats_.redirects;
  count("supervisor.redirects");
  switch_server(target);
  attempts_ = 0;  // fresh retry budget against the target
  resend_or_recover("redirect");
}

void ClientDevice::on_shed(const net::Message& message) {
  if (!awaiting_result_) return;
  // The server shed our request (admission queue full) or expired it past
  // its queue deadline. The realm is untouched since capture — the
  // offloaded event is still at the queue front — so finish this inference
  // locally.
  const bool overloaded = message.name[0] == 'o';
  OFFLOAD_LOG_INFO << "client: server "
                   << (overloaded ? "overloaded" : "expired the request")
                   << ", falling back to local execution";
  fall_back_locally(overloaded ? "server overloaded"
                               : "server queue deadline");
}

void ClientDevice::on_model_missing(const net::Message&) {
  if (!awaiting_result_) return;
  // The server cannot run our app: its model store has no entry — the
  // signature of a crashed-and-restarted server (or a never pre-sent
  // model). Supervised clients re-presend and replay; others fall back
  // locally rather than hang.
  if (supervising() && inflight_snapshot_) {
    cancel_phase_timer();
    begin_recovery("server lost the model");
    return;
  }
  OFFLOAD_LOG_WARN << "client: server has no model for '" << bundle_.name
                   << "', falling back locally";
  fall_back_locally("server lost the model");
}

void ClientDevice::on_rejected(const net::Message&) {
  if (!awaiting_result_) return;
  // The server could not decode, parse or run our snapshot. A retry would
  // fail the same way, so finish this inference locally.
  OFFLOAD_LOG_WARN << "client: server rejected the snapshot for '"
                   << bundle_.name << "', falling back locally";
  fall_back_locally("server rejected the snapshot");
}

void ClientDevice::on_send_files(const net::Message& message) {
  // The server's model store missed part (or all) of our offer; it wants
  // those files uploaded in full.
  if (payload_intact(message)) {
    send_requested_files(FileListPayload::decode(std::span(message.payload)));
    return;
  }
  // The request list itself was damaged in flight: restart the exchange
  // with a fresh offer.
  if (!supervising()) throw PayloadCorruptError(message);
  record_breaker_outcome(/*success=*/false);
  resend_model();
}

void ClientDevice::on_corrupt_payload(const net::Message&) {
  // The server rejected our bytes (CRC mismatch). Re-send whatever was in
  // flight toward it — unless the snapshot is still parked on the dedup
  // pre-send, in which case the damaged bytes were the offer/upload and
  // the model branch below restarts it.
  if (awaiting_result_ && inflight_snapshot_ && !hold_snapshot_for_ack_) {
    if (supervising()) {
      record_breaker_outcome(/*success=*/false);
      retry_snapshot("server rejected corrupt payload");
      return;
    }
    OFFLOAD_LOG_WARN << "client: snapshot corrupted in flight, re-sending";
    ++timeline_.retries;
    count("client.retries");
    send_inflight("snapshot_resend");
    return;
  }
  if (awaiting_ack_ || !timeline_.ack_received) {
    OFFLOAD_LOG_WARN << "client: model upload corrupted in flight, "
                        "re-sending";
    resend_model();
    if (supervising()) ++sup_stats_.retries;
  }
}

void ClientDevice::on_not_installed(const net::Message&) {
  if (!config_.install_on_demand) {
    OFFLOAD_LOG_WARN << "client: server not installed and on-demand "
                        "installation disabled";
    return;
  }
  if (overlay_sent_) return;
  OFFLOAD_LOG_INFO << "client: server lacks offloading system, sending VM "
                      "overlay";
  overlay_sent_ = true;
  model_sent() = false;  // the refused upload never landed
  send_overlay();
}

void ClientDevice::mark_snapshot_send(net::Message& msg, const char* label) {
  if (!obs_) return;
  // Each (re)send opens its own transmit-up span; a superseded attempt —
  // one whose bytes never reached the server — closes here with zero
  // charge so only the send the server actually received contributes to
  // the transmission_up accounting. Spans the server already closed at
  // arrival are untouched (close is a no-op on closed spans).
  if (up_span_) obs_->trace.close(up_span_, sim_.now(), 0.0);
  up_span_ = obs_->trace.open(trace_, root_span_, obs::SpanKind::kTransmitUp,
                              label, "client/net", sim_.now());
  obs_->trace.attr(up_span_, "attempt", static_cast<std::int64_t>(attempts_));
  obs_->trace.attr(up_span_, "server",
                   static_cast<std::int64_t>(active_server_));
  msg.ctx = {trace_, up_span_, root_span_};
}

void ClientDevice::finish_trace() {
  notify_done();
  if (timeline_.finished) {
    // Close the controller loop exactly once per decision: a local
    // decision always "worked"; a remote one only if the result actually
    // came from the server.
    record_decision(decision_ && decision_->local ? true
                                                  : timeline_.offloaded,
                    timeline_.inference_seconds());
  }
  if (!obs_ || !root_span_ || !timeline_.finished) return;
  // Abandoned phases (an unanswered send, a recovery the hedge outran)
  // close with zero charge: their interval stays visible in the trace but
  // contributes nothing to the accounting sums.
  if (up_span_) {
    obs_->trace.close(up_span_, sim_.now(), 0.0);
    up_span_ = 0;
  }
  if (recovery_span_) {
    obs_->trace.close(recovery_span_, sim_.now(), 0.0);
    recovery_span_ = 0;
  }
  obs_->trace.attr(root_span_, "offloaded",
                   static_cast<std::int64_t>(timeline_.offloaded ? 1 : 0));
  obs_->trace.attr(root_span_, "local_fallback",
                   static_cast<std::int64_t>(timeline_.local_fallback ? 1
                                                                      : 0));
  obs_->trace.attr(root_span_, "server",
                   static_cast<std::int64_t>(timeline_.server_index));
  obs_->trace.attr(root_span_, "retries",
                   static_cast<std::int64_t>(timeline_.retries));
  obs_->trace.close(root_span_, *timeline_.finished);
  root_span_ = 0;
  obs_->metrics.add("client.inferences");
  if (timeline_.offloaded) obs_->metrics.add("client.offloaded");
  if (timeline_.local_fallback) obs_->metrics.add("client.local_fallbacks");
  obs_->metrics.observe("client.inference_ms",
                        timeline_.inference_seconds() * 1e3);
}

std::string ClientDevice::result_text() const {
  jsvm::DomNodePtr node =
      browser_->interp().document().get_element_by_id(bundle_.result_element);
  return node ? node->text : "";
}

}  // namespace offload::edge
