#include "src/edge/edge_server.h"

#include "src/jsvm/fingerprint.h"
#include "src/jsvm/interpreter.h"
#include "src/jsvm/lexer.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace offload::edge {

EdgeServer::EdgeServer(sim::Simulation& sim, net::Endpoint& endpoint,
                       EdgeServerConfig config)
    : sim_(sim),
      config_(std::move(config)),
      store_(std::make_shared<ModelStore>()) {
  scheduler_ = make_scheduler();
  attach(endpoint);
}

std::unique_ptr<serve::Scheduler> EdgeServer::make_scheduler() const {
  serve::SchedulerConfig sched = config_.scheduler;
  sched.obs = config_.obs;
  sched.obs_name = config_.obs_name;
  return std::make_unique<serve::Scheduler>(sim_, std::move(sched));
}

void EdgeServer::attach(net::Endpoint& endpoint) {
  endpoint.set_handler([this, &endpoint](const net::Message& m) {
    on_message(endpoint, m);
  });
}

void EdgeServer::schedule_crash(sim::SimTime at, sim::SimTime downtime) {
  sim_.schedule_at(at, [this, downtime] {
    ++stats_.crashes;
    count("crashes");
    if (config_.obs) {
      config_.obs->trace.marker(0, 0, "crash", config_.obs_name, sim_.now());
    }
    ++boot_epoch_;
    down_ = true;
    // Volatile state dies with the process: pre-sent models, the
    // differential-snapshot session cache, and every queued or running
    // execution. Completions already scheduled by the old scheduler still
    // fire, so it retires instead of being destroyed; the epoch bump makes
    // them no-ops.
    store_->clear();
    sessions_.clear();
    migratable_.clear();
    browser_.reset();
    last_browser_ = nullptr;
    retired_schedulers_.push_back(std::move(scheduler_));
    scheduler_ = make_scheduler();
    OFFLOAD_LOG_INFO << "edge server: crashed at " << sim_.now().to_seconds()
                     << "s, down for " << downtime.to_seconds() << "s";
    sim_.schedule(downtime, [this] {
      down_ = false;
      ++stats_.restarts;
      count("restarts");
      if (config_.obs) {
        config_.obs->trace.marker(0, 0, "restart", config_.obs_name,
                                  sim_.now());
      }
      OFFLOAD_LOG_INFO << "edge server: restarted at "
                       << sim_.now().to_seconds() << "s (cold: empty store)";
    });
  });
}

void EdgeServer::schedule_stall(sim::SimTime at, sim::SimTime duration) {
  sim_.schedule_at(at, [this, duration] {
    sim::SimTime until = sim_.now() + duration;
    if (until > stall_until_) stall_until_ = until;
  });
}

void EdgeServer::send_control(net::Endpoint& to, const std::string& name,
                              util::Bytes payload) {
  net::Message reply;
  reply.type = net::MessageType::kControl;
  reply.name = name;
  reply.payload = std::move(payload);
  to.send(std::move(reply));
}

void EdgeServer::on_message(net::Endpoint& from, const net::Message& message) {
  if (down_) {
    // A dead host: the bytes arrive at a closed port and vanish.
    ++stats_.dropped_while_down;
    count("dropped_while_down");
    return;
  }
  if (sim_.now() < stall_until_) {
    // Frozen (GC pause / noisy neighbour): handle when the stall lifts.
    // Re-entering on_message re-checks `down_` — a crash that lands
    // during the stall still eats the message.
    ++stats_.stalled_messages;
    count("stalled_messages");
    sim_.schedule_at(stall_until_, [this, &from, message = message] {
      on_message(from, message);
    });
    return;
  }
  // A kModelFiles body is verified in the same single CRC pass that decodes
  // it into views; every other payload is CRC'd whole.
  std::optional<ModelFilesPayload> model_files;
  bool intact = true;
  if (message.type == net::MessageType::kModelFiles) {
    try {
      model_files = ModelFilesPayload::decode(message);
    } catch (const PayloadCorruptError&) {
      intact = false;
    } catch (const util::DecodeError&) {
      // Arrived as sent, but malformed: rejected below, once installed.
    }
  } else {
    intact = message.payload.empty() || payload_intact(message);
  }
  if (!intact) {
    // Damaged in flight. Reject with a typed control reply so the sender
    // can retransmit instead of us decoding garbage.
    ++stats_.corrupt_rejected;
    count("corrupt_rejected");
    if (config_.obs && message.type == net::MessageType::kSnapshot) {
      // The bytes reached us, even if rejected: close the transmit-up span.
      config_.obs->trace.close(message.ctx.span, sim_.now());
    }
    OFFLOAD_LOG_WARN << "edge server: CRC mismatch on "
                     << net::message_type_name(message.type) << " '"
                     << message.name << "', rejecting";
    send_control(from, "corrupt_payload:" + message.name);
    return;
  }
  switch (message.type) {
    case net::MessageType::kModelFiles:
      if (!installed()) return refuse(from, message);
      if (!model_files) return reject_presend(from, message);
      return handle_model_files(from, message, std::move(*model_files));
    case net::MessageType::kModelOffer:
      if (!installed()) return refuse(from, message);
      return handle_model_offer(from, message);
    case net::MessageType::kSnapshot:
      // The client's transmit-up span ends at (deferred) arrival — the
      // same instant `received_at` is stamped below, so the span interval
      // reproduces the breakdown's transmission_up computation exactly.
      if (config_.obs) config_.obs->trace.close(message.ctx.span, sim_.now());
      if (!installed()) return refuse(from, message);
      return handle_snapshot(from, message);
    case net::MessageType::kVmOverlay:
      return handle_overlay(from, message);
    default:
      OFFLOAD_LOG_WARN << "edge server: unexpected message type "
                       << net::message_type_name(message.type);
  }
}

void EdgeServer::refuse(net::Endpoint& from, const net::Message& message) {
  ++stats_.refused;
  count("refused");
  send_control(from, "not_installed:" + message.name);
}

void EdgeServer::handle_model_files(net::Endpoint& from,
                                    const net::Message& message,
                                    ModelFilesPayload payload) {
  const std::uint64_t bytes = nn::total_size(payload.files);
  store_->store_files(std::move(payload.files));
  ++stats_.models_stored;
  count("models_stored");

  // Persisting the files costs disk time before the ACK goes out
  // (Section III.B.1: "the server saves the files and sends an ACK").
  double store_s = static_cast<double>(bytes) / config_.store_Bps;
  std::string app = message.name;
  const std::uint64_t epoch = boot_epoch_;
  sim_.schedule(sim::SimTime::seconds(store_s), [this, &from, app, epoch] {
    if (epoch != boot_epoch_) return;  // crashed mid-store; ACK dies with us
    net::Message ack;
    ack.type = net::MessageType::kAck;
    ack.name = app;
    from.send(std::move(ack));
  });
}

void EdgeServer::handle_model_offer(net::Endpoint& from,
                                    const net::Message& message) {
  ModelOfferPayload offer;
  try {
    offer = ModelOfferPayload::decode(std::span(message.payload));
  } catch (const util::DecodeError&) {
    return reject_presend(from, message);
  }
  ++stats_.model_offers;
  count("model_offers");

  std::vector<nn::ModelFile> cached;
  FileListPayload missing;
  for (const auto& entry : offer.files) {
    bool corrupt = false;
    const nn::ModelFile* blob = store_->find_blob(entry.digest, &corrupt);
    if (corrupt) {
      // The cached copy rotted since it was stored; it was just evicted.
      // Falling through to "missing" forces a clean re-upload rather than
      // instantiating a damaged network.
      ++stats_.dedup_corrupt_blobs;
      count("dedup_corrupt_blobs");
    }
    if (blob) {
      ++stats_.dedup_hit_files;
      count("dedup_hits");
      stats_.dedup_bytes_saved += entry.bytes;
      if (config_.obs) {
        config_.obs->metrics.add(config_.obs_name + ".dedup_bytes_saved",
                                 entry.bytes);
      }
      cached.push_back(*blob);
      cached.back().name = entry.name;
    } else {
      ++stats_.dedup_miss_files;
      count("dedup_misses");
      missing.names.push_back(entry.name);
    }
  }
  if (!cached.empty()) store_->store_files(std::move(cached));

  if (missing.names.empty()) {
    // The whole bundle was served from the cache: nothing new to persist,
    // ACK right away. The client's generic ACK handling completes the
    // pre-send without ever shipping a body.
    if (config_.obs) {
      config_.obs->trace.marker(0, 0, "dedup_hit:" + message.name,
                                config_.obs_name, sim_.now());
    }
    net::Message ack;
    ack.type = net::MessageType::kAck;
    ack.name = "have:" + message.name;
    from.send(std::move(ack));
    return;
  }
  // Ask for just the files we lack; handle_model_files stores (and so
  // indexes) them and sends the normal post-store ACK.
  send_control(from, "send_files:" + message.name, missing.encode());
}

bool EdgeServer::try_escalate(net::Endpoint& from, const std::string& app,
                              util::SharedBytes payload, obs::TraceContext ctx,
                              const char* reason) {
  if (!escalate_) return false;
  // Differential snapshots patch this server's session realm; they are
  // meaningless anywhere else, so they never escalate.
  if (SnapshotPayload::decode(std::span(payload)).differential) return false;
  EscalationRequest req;
  req.app = app;
  req.payload = std::move(payload);
  req.reply_to = &from;
  req.ctx = ctx;
  req.reason = reason;
  if (!escalate_(std::move(req))) return false;
  ++stats_.snapshots_escalated;
  count("snapshots_escalated");
  if (config_.obs) {
    config_.obs->trace.marker(ctx.trace, ctx.root,
                              std::string("escalate:") + reason,
                              config_.obs_name + "/queue", sim_.now());
  }
  return true;
}

void EdgeServer::reject_snapshot(net::Endpoint& from,
                                 const net::Message& message) {
  // The payload or its program does not parse, or the script failed. The
  // client's realm still holds the event, so it runs the inference itself.
  ++stats_.snapshots_rejected;
  count("snapshots_rejected");
  if (config_.obs) {
    config_.obs->trace.marker(message.ctx.trace, message.ctx.root, "rejected",
                              config_.obs_name, sim_.now());
  }
  OFFLOAD_LOG_WARN << "edge server: snapshot for '" << message.name
                   << "' failed to decode, parse or run, rejecting";
  send_control(from, "rejected:" + message.name);
}

void EdgeServer::reject_presend(net::Endpoint& from,
                                const net::Message& message) {
  ++stats_.presends_rejected;
  count("presends_rejected");
  OFFLOAD_LOG_WARN << "edge server: " << net::message_type_name(message.type)
                   << " pre-send for '" << message.name
                   << "' failed to decode, rejecting";
  send_control(from, "rejected:" + message.name);
}

void EdgeServer::handle_snapshot(net::Endpoint& from,
                                 const net::Message& message) {
  // The CRC only shows the bytes arrived as sent; a sender can still send
  // a truncated or malformed payload.
  SnapshotPayload payload;
  try {
    payload = SnapshotPayload::decode(std::span(message.payload));
  } catch (const util::DecodeError&) {
    return reject_snapshot(from, message);
  }
  if (!scheduler_->would_admit()) {
    // Overloaded. First offer the job up-tier: the topology (when
    // attached) executes it on the cloud and replies through this
    // endpoint, so the client just sees a slower "accepted:" → result.
    if (try_escalate(from, message.name, message.payload, message.ctx,
                     "overloaded")) {
      if (config_.ack_snapshots) {
        // The admission receipt still comes from here — the supervising
        // client's upload deadline must not fire while the job climbs.
        send_control(from, "accepted:" + message.name);
      }
      return;
    }
    // Load shed before restoring anything: the client's realm still holds
    // the offloaded event, so it finishes this inference locally. This
    // shed happens before scheduler admission, so it shows up here — not
    // in the scheduler's rejected.* counters.
    ++stats_.snapshots_shed;
    count("snapshots_shed");
    if (config_.obs) {
      config_.obs->trace.marker(message.ctx.trace, message.ctx.root,
                                "shed:overloaded",
                                config_.obs_name + "/queue", sim_.now());
    }
    send_control(from, "overloaded:" + message.name);
    return;
  }

  ServerExecutionRecord record;
  record.received_at = sim_.now();
  record.snapshot_in_bytes = message.wire_size();

  if (config_.ack_snapshots) {
    // Admission receipt: lets a supervising client split its upload
    // deadline from the (queue + execution) deadline.
    send_control(from, "accepted:" + message.name);
  }

  try {
    if (payload.differential) {
      // Apply the diff to the session realm from the previous offload —
      // possible only if we still hold the exact baseline it patches.
      // After a crash the session cache is empty, so this is also how a
      // restarted server tells diff-mode clients to start over.
      auto it = sessions_.find(message.name);
      if (it == sessions_.end() ||
          it->second.version != payload.base_version) {
        ++stats_.diff_version_misses;
        count("diff_version_misses");
        if (config_.obs) {
          config_.obs->trace.marker(message.ctx.trace, message.ctx.root,
                                    "need_full", config_.obs_name,
                                    sim_.now());
        }
        send_control(from, "need_full:" + message.name);
        return;
      }
      browser_ = std::move(it->second.browser);
      sessions_.erase(it);
      if (payload.cut != UINT64_MAX) {
        browser_->set_partition_cut(message.name,
                                    static_cast<std::size_t>(payload.cut));
      }
      browser_->interp().eval_program(payload.program, "diff-snapshot");
      ++stats_.diff_snapshots_applied;
      count("diff_snapshots_applied");
    } else {
      // Fresh page per offload: the snapshot is a self-contained app.
      browser_ = std::make_unique<BrowserHost>(config_.profile, store_);
      if (payload.cut != UINT64_MAX) {
        browser_->set_partition_cut(message.name,
                                    static_cast<std::size_t>(payload.cut));
      }
      jsvm::restore_snapshot(browser_->interp(), payload.program);
    }
    record.restore_s = config_.profile.snapshot_restore_s(
        payload.program.size());

    // Continue execution: re-dispatched events run the offloaded handler.
    {
      obs::ScopedMetrics nn_metrics(config_.obs ? &config_.obs->metrics
                                                : nullptr);
      browser_->interp().run_events();
    }
  } catch (const jsvm::JsError&) {
    if (!store_->can_instantiate(message.name)) {
      // The script needed a model we do not hold — either it was never
      // pre-sent, or a crash wiped the store (__loadModel throws during
      // the restore run). Tell the client so it can re-presend and retry
      // instead of wedging.
      ++stats_.model_missing_replies;
      count("model_missing_replies");
      if (config_.obs) {
        config_.obs->trace.marker(message.ctx.trace, message.ctx.root,
                                  "model_missing", config_.obs_name,
                                  sim_.now());
      }
      OFFLOAD_LOG_WARN << "edge server: no model for '" << message.name
                       << "', requesting re-presend";
      browser_.reset();
      send_control(from, "model_missing:" + message.name);
      return;
    }
    browser_.reset();
    return reject_snapshot(from, message);
  } catch (const jsvm::ParseError&) {
    browser_.reset();
    return reject_snapshot(from, message);
  } catch (const InvalidCutError&) {
    // The snapshot's cut is past the stored model's last node.
    browser_.reset();
    return reject_snapshot(from, message);
  } catch (const util::DecodeError&) {
    // Checking the cut instantiated a stored model whose files are
    // malformed.
    browser_.reset();
    return reject_snapshot(from, message);
  }
  record.execute_s = browser_->consume_compute_seconds();

  // Capture the result snapshot.
  jsvm::SnapshotResult result =
      jsvm::capture_snapshot(browser_->interp(), config_.snapshot_options);
  record.capture_s =
      config_.profile.snapshot_capture_s(result.stats.total_bytes);
  record.result_stats = result.stats;

  SnapshotPayload reply_payload;
  reply_payload.cut = payload.cut;
  reply_payload.program = std::move(result.program);
  if (config_.keep_sessions) {
    // Remember this exact state: if the client diffs against it next
    // time, we can apply the patch in place. The version is the realm
    // fingerprint, which the client's restored realm reproduces.
    reply_payload.base_version =
        jsvm::fingerprint_realm(browser_->interp()).version;
  }

  net::Message reply;
  reply.type = net::MessageType::kResultSnapshot;
  reply.name = message.name;
  reply.payload = reply_payload.encode();
  record.snapshot_out_bytes = reply.wire_size();

  // The server's compute is a shared resource: executions from all
  // clients queue on the serving scheduler (the default 1-replica FIFO
  // configuration is exactly the old compute reservation). Each job is
  // opaque: a full JS VM execution in its own realm.
  ++stats_.snapshots_executed;
  count("snapshots_executed");
  const std::size_t record_index = executions_.size();
  executions_.push_back(record);
  last_browser_ = browser_.get();
  if (config_.keep_sessions) {
    Session session;
    session.version = reply_payload.base_version;
    session.browser = std::move(browser_);
    sessions_[message.name] = std::move(session);
  }
  sim::SimTime deadline = sim::SimTime::max();
  if (config_.queue_deadline != sim::SimTime::zero()) {
    deadline = sim_.now() + config_.queue_deadline;
  }
  const std::uint64_t epoch = boot_epoch_;
  std::string app = message.name;
  const obs::TraceContext ctx = message.ctx;
  // The scheduler id is unknown until submit returns, but both callbacks
  // are built first; they read it through this box (safe: completions and
  // expiries fire from simulation events, never inside submit_opaque).
  auto id_box = std::make_shared<std::uint64_t>(0);
  serve::SubmitResult submitted = scheduler_->submit_opaque(
      record.busy_s(),
      [this, &from, record_index, epoch, ctx, id_box,
       reply = std::move(reply)](const serve::RequestTiming& t) mutable {
        if (epoch != boot_epoch_) return;  // crashed mid-execution
        // (After the epoch check: a post-crash scheduler reuses job ids,
        // so a stale completion must not erase a new job's entry.)
        migratable_.erase(*id_box);
        ServerExecutionRecord& rec = executions_[record_index];
        rec.queue_wait_s = t.queue_wait_s;
        if (obs::Obs* obs = config_.obs) {
          // Tile the lane-busy interval with the three server phases,
          // charging each the exact double from the execution record.
          const std::string res =
              config_.obs_name + "/lane" + std::to_string(t.replica);
          const sim::SimTime restore_end =
              t.dispatched + sim::SimTime::seconds(rec.restore_s);
          const sim::SimTime exec_end =
              t.dispatched +
              sim::SimTime::seconds(rec.restore_s + rec.execute_s);
          obs->trace.emit(ctx.trace, t.busy_span,
                          obs::SpanKind::kServerRestore, "restore", res,
                          t.dispatched, restore_end, rec.restore_s);
          obs->trace.emit(ctx.trace, t.busy_span, obs::SpanKind::kServerExec,
                          "execute", res, restore_end, exec_end,
                          rec.execute_s);
          obs->trace.emit(ctx.trace, t.busy_span,
                          obs::SpanKind::kServerCapture, "capture", res,
                          exec_end, t.completed, rec.capture_s);
          // The reply's transmit-down span: opened as it leaves, closed by
          // the client at arrival.
          obs::SpanId down = obs->trace.open(
              ctx.trace, ctx.root, obs::SpanKind::kTransmitDown,
              "reply:" + reply.name, config_.obs_name + "/net", sim_.now());
          reply.ctx = {ctx.trace, down, ctx.root};
        }
        if (config_.ack_snapshots) send_control(from, "done:" + reply.name);
        from.send(std::move(reply));
      },
      deadline,
      [this, &from, app, epoch, ctx, id_box](const serve::RequestTiming&) {
        if (epoch != boot_epoch_) return;
        // Queued too long. A job that can run elsewhere gets one more
        // chance up-tier before the client hears "expired:".
        util::SharedBytes payload;
        if (auto it = migratable_.find(*id_box); it != migratable_.end()) {
          payload = std::move(it->second.payload);
          migratable_.erase(it);
        }
        if (!payload.empty() &&
            try_escalate(from, app, std::move(payload), ctx, "expired")) {
          return;
        }
        // Deadline-aware cancellation: the client hears why, so it can
        // fall back locally instead of waiting forever.
        ++stats_.jobs_expired;
        send_control(from, "expired:" + app);
      },
      ctx);
  if (submitted.admitted) {
    MigratableJob job;
    job.id = submitted.id;
    job.app = app;
    // Differential jobs keep an empty payload: they can only redirect
    // (the session realm lives here), never re-run elsewhere.
    if (!payload.differential) job.payload = message.payload;
    job.reply_to = &from;
    job.ctx = ctx;
    job.differential = payload.differential;
    *id_box = submitted.id;
    migratable_.emplace(submitted.id, std::move(job));
    if (on_admit_) on_admit_();
  }
}

std::optional<EdgeServer::MigratableJob> EdgeServer::steal_job(
    bool relayable_only) {
  for (auto it = migratable_.begin(); it != migratable_.end(); ++it) {
    if (relayable_only && it->second.differential) continue;
    // Only a job still sitting in the queue can leave; one already on a
    // lane (or completed) fails the cancel and keeps its local fate.
    if (!scheduler_->cancel(it->first)) continue;
    MigratableJob job = std::move(it->second);
    migratable_.erase(it);
    ++stats_.jobs_migrated;
    count("jobs_migrated");
    return job;
  }
  return std::nullopt;
}

void EdgeServer::handle_overlay(net::Endpoint& from,
                                const net::Message& message) {
  if (!base_image_) base_image_ = vmsynth::make_base_image();
  vmsynth::VmImage image =
      vmsynth::synthesize(*base_image_, std::span(message.payload));

  // Pull any model files shipped inside the overlay into the store — this
  // doubles as pre-sending (Section III.B.3).
  constexpr std::string_view kModelDir = "/opt/offload/models/";
  for (const auto& f : image.files()) {
    if (util::starts_with(f.path, kModelDir)) {
      store_->store_file({f.path.substr(kModelDir.size()), f.content});
    }
  }
  synthesized_ = std::move(image);
  config_.offloading_system_installed = true;
  ++stats_.overlays_installed;
  count("overlays_installed");

  vmsynth::OverlayStats overlay_stats;
  overlay_stats.compressed_bytes = message.payload.size();
  // The uncompressed size is implied by the payload; approximate the apply
  // cost from the synthesized image size.
  overlay_stats.uncompressed_bytes = synthesized_->total_bytes();
  double synth_s = vmsynth::synthesis_compute_seconds(overlay_stats);
  stats_.vm_synthesis_compute_s += synth_s;

  std::string app = message.name;
  const std::uint64_t epoch = boot_epoch_;
  sim_.schedule(sim::SimTime::seconds(synth_s), [this, &from, app, epoch] {
    if (epoch != boot_epoch_) return;
    net::Message ack;
    ack.type = net::MessageType::kAck;
    ack.name = "installed:" + app;
    from.send(std::move(ack));
  });
}

}  // namespace offload::edge
