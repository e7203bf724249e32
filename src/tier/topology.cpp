#include "src/tier/topology.h"

#include <algorithm>
#include <utility>

#include "src/edge/protocol.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace offload::tier {

namespace {

/// Model files belonging to `app` in `store` ("<app>.desc",
/// "<app>.weights", "<app>.rear.weights").
std::vector<const nn::ModelFile*> app_files(const edge::ModelStore& store,
                                            const std::string& app) {
  std::vector<const nn::ModelFile*> out;
  const std::string prefix = app + ".";
  for (const nn::ModelFile& f : store.files()) {
    if (util::starts_with(f.name, prefix)) out.push_back(&f);
  }
  return out;
}

obs::SpanKind kind_for(const char* label) {
  if (label[0] == 's') return obs::SpanKind::kSteal;
  if (label[0] == 'm') return obs::SpanKind::kMigrate;
  return obs::SpanKind::kEscalate;
}

}  // namespace

net::ChannelConfig TierConfig::default_uplink() {
  // Edge → regional cloud: a fat WAN path, but 20 ms away each way.
  net::ChannelConfig ch;
  ch.a_to_b.bandwidth_bps = 200e6;
  ch.a_to_b.latency = sim::SimTime::millis(20);
  ch.b_to_a.bandwidth_bps = 200e6;
  ch.b_to_a.latency = sim::SimTime::millis(20);
  return ch;
}

net::ChannelConfig TierConfig::default_peer_link() {
  // Edge ↔ edge: same-rack LAN.
  net::ChannelConfig ch;
  ch.a_to_b.bandwidth_bps = 1e9;
  ch.a_to_b.latency = sim::SimTime::micros(500);
  ch.b_to_a.bandwidth_bps = 1e9;
  ch.b_to_a.latency = sim::SimTime::micros(500);
  return ch;
}

Topology::Topology(sim::Simulation& sim, fleet::EdgeFleet& fleet,
                   TierConfig config)
    : sim_(sim),
      fleet_(fleet),
      config_(std::move(config)),
      steal_rng_(config_.steal_seed) {
  anchor_ = net::Channel::make(sim_, config_.uplink, "tier/uplink", "cloud");
  if (config_.obs) anchor_->set_obs(config_.obs);
  if (config_.on_channel) config_.on_channel(*anchor_);

  edge::EdgeServerConfig cloud;
  cloud.profile = config_.cloud_profile;
  cloud.scheduler.replicas = config_.cloud_replicas;
  // The cloud is a vanilla EdgeServer speaking the unmodified protocol.
  // No receipts (the origin edge already gave the client its "accepted:";
  // the topology synthesizes "done:" when relaying the result) and no
  // sessions (escalated jobs are one-shot self-contained snapshots).
  cloud.ack_snapshots = false;
  cloud.keep_sessions = false;
  cloud.obs = config_.obs;
  cloud.obs_name = "cloud";
  cloud_ = std::make_unique<edge::EdgeServer>(sim_, anchor_->b(),
                                              std::move(cloud));

  for (std::size_t k = 0; k < fleet_.servers_up(); ++k) {
    fleet_.server(k).set_escalation_handler(
        [this, k](edge::EscalationRequest req) {
          return escalate(k, std::move(req));
        });
    if (config_.steal) {
      fleet_.server(k).set_admission_hook([this] { arm_steal_tick(); });
    }
  }
}

Topology::~Topology() = default;

std::string Topology::server_label(std::size_t index) const {
  return index == kCloud ? "cloud" : fleet_.server_name(index);
}

bool Topology::escalate(std::size_t origin, edge::EscalationRequest req) {
  // Up-tier execution needs the model pushed from the origin's store; a
  // job whose model never finished pre-sending sheds normally instead.
  if (!fleet_.server(origin).model_store().can_instantiate(req.app)) {
    return false;
  }
  ++stats_.escalations;
  count("escalations");
  start_relay(origin, std::move(req), kCloud, "escalate");
  return true;
}

void Topology::start_relay(std::size_t origin, edge::EscalationRequest req,
                           std::size_t target, const char* kind) {
  const std::uint64_t id = next_relay_++;
  Relay r;
  r.id = id;
  r.origin = origin;
  r.target = target;
  r.app = std::move(req.app);
  r.payload = std::move(req.payload);
  r.reply_to = req.reply_to;
  r.ctx = req.ctx;
  r.origin_epoch = fleet_.server(origin).boot_epoch();
  r.origin_acks = fleet_.server(origin).acks();

  // One dedicated channel per relayed job: a reply arriving on it can
  // only belong to this job, so there is no correlation ambiguity, and
  // anything arriving after the relay closed is simply ignored.
  const std::string label = "tier/relay" + std::to_string(id);
  r.channel = net::Channel::make(
      sim_, target == kCloud ? config_.uplink : config_.peer_link, label,
      server_label(target));
  if (config_.obs) r.channel->set_obs(config_.obs);
  if (config_.on_channel) config_.on_channel(*r.channel);
  (target == kCloud ? *cloud_ : fleet_.server(target)).attach(r.channel->b());
  r.channel->a().set_handler([this, id](const net::Message& m) {
    on_relay_message(id, m);
  });
  r.channel->a().set_failure_handler(
      [this, id](const net::Message&, int) {
        // The tier link gave up (ARQ exhausted — e.g. a blackout window
        // outlasted the retransmit budget): one typed failure, now.
        auto it = relays_.find(id);
        if (it != relays_.end() && !it->second.done) {
          fail_relay(it->second, "expired:" + it->second.app);
        }
      });

  if (config_.obs) {
    r.span = config_.obs->trace.open(r.ctx.trace, r.ctx.root, kind_for(kind),
                                     std::string(kind) + ":" + r.app, label,
                                     sim_.now());
    config_.obs->trace.attr(r.span, "origin", server_label(origin));
    config_.obs->trace.attr(r.span, "target", server_label(target));
  }

  // The per-hop deadline budget: no result by then → the client hears a
  // typed "expired:" (and anything later lands on a dead relay).
  r.watchdog = sim_.schedule(config_.escalation_budget, [this, id] {
    auto it = relays_.find(id);
    if (it != relays_.end() && !it->second.done) {
      fail_relay(it->second, "expired:" + it->second.app);
    }
  });

  auto [it, inserted] = relays_.emplace(id, std::move(r));
  send_offer(it->second);
}

void Topology::send_offer(Relay& r) {
  // Content-addressed model push: digests first, bodies only for what the
  // executor's model store is missing. Repeat escalations of an app are
  // digest-sized after the first.
  edge::ModelStore& store = fleet_.server(r.origin).model_store();
  edge::ModelOfferPayload offer;
  for (const nn::ModelFile* f : app_files(store, r.app)) {
    offer.files.push_back({f->name, store.digest(*f), f->size()});
  }
  net::Message msg;
  msg.type = net::MessageType::kModelOffer;
  msg.name = r.app;
  msg.payload = offer.encode();
  r.channel->a().send(std::move(msg));
}

void Topology::send_files(Relay& r, const std::vector<std::string>& names) {
  edge::ModelFilesPayload payload;
  for (const nn::ModelFile* f :
       app_files(fleet_.server(r.origin).model_store(), r.app)) {
    if (std::find(names.begin(), names.end(), f->name) != names.end()) {
      payload.files.push_back(*f);
    }
  }
  ++stats_.model_pushes;
  count("model_pushes");
  net::Message msg;
  msg.type = net::MessageType::kModelFiles;
  msg.name = r.app;
  msg.payload = payload.encode();
  r.channel->a().send(std::move(msg));
}

void Topology::send_snapshot(Relay& r) {
  net::Message msg;
  msg.type = net::MessageType::kSnapshot;
  msg.name = r.app;
  msg.payload = r.payload;
  // No transmit span to close at the executor (span 0 is a no-op there);
  // the relay's own escalate/steal/migrate span covers the whole hop.
  msg.ctx = {r.ctx.trace, 0, r.ctx.root};
  r.snapshot_sent = true;
  r.channel->a().send(std::move(msg));
}

void Topology::on_relay_message(std::uint64_t id, const net::Message& m) {
  auto it = relays_.find(id);
  if (it == relays_.end() || it->second.done) return;
  Relay& r = it->second;
  if (!m.payload.empty() && !edge::payload_intact(m)) {
    // Corrupted on the tier link (a corrupt-migration fault). Endpoint::
    // send stamps a *fresh* CRC, so relaying these bytes onward would
    // launder the damage into a checksum-valid message the client trusts.
    // Never forward them: re-drive the exchange from our pristine copy —
    // bounded — and fail typed when the budget runs out.
    if (r.retries++ < config_.max_relay_retries) {
      if (r.snapshot_sent) {
        send_snapshot(r);  // the executor simply runs it again
      } else {
        send_offer(r);
      }
    } else {
      fail_relay(r, "expired:" + r.app);
    }
    return;
  }
  switch (m.type) {
    case net::MessageType::kAck:
      // "have:<app>" (cache covered the offer) or the post-store ACK —
      // either way the executor now holds the model.
      if (!r.snapshot_sent) send_snapshot(r);
      return;
    case net::MessageType::kResultSnapshot:
      finish_relay(r, m);
      return;
    case net::MessageType::kControl:
      break;
    default:
      return;
  }
  const std::string& name = m.name;
  if (util::starts_with(name, "send_files:")) {
    send_files(r, edge::FileListPayload::decode(std::span(m.payload)).names);
    return;
  }
  if (util::starts_with(name, "overloaded:") ||
      util::starts_with(name, "expired:")) {
    // The executor shed or deadline-cancelled the job: relay the typed
    // verdict verbatim; the client falls back exactly as if its own edge
    // had said it.
    fail_relay(r, name);
    return;
  }
  if (util::starts_with(name, "model_missing:")) {
    // The executor crashed between our push and the snapshot: push again,
    // a bounded number of times.
    if (r.retries++ < config_.max_relay_retries) {
      r.snapshot_sent = false;
      send_offer(r);
    } else {
      fail_relay(r, "expired:" + r.app);
    }
    return;
  }
  if (util::starts_with(name, "corrupt_payload:")) {
    // Damaged in flight (a corrupt-migration fault): the bytes are still
    // pristine here, so resend — bounded — whatever leg was corrupted.
    if (r.retries++ < config_.max_relay_retries) {
      if (r.snapshot_sent) {
        send_snapshot(r);
      } else {
        send_offer(r);
      }
    } else {
      fail_relay(r, "expired:" + r.app);
    }
    return;
  }
  if (util::starts_with(name, "need_full:") ||
      util::starts_with(name, "not_installed:")) {
    // Structurally impossible (relays carry self-contained snapshots to
    // installed executors); if it happens anyway, fail typed, never hang.
    fail_relay(r, "expired:" + r.app);
    return;
  }
  // "accepted:"/"done:" receipts from an acking executor: the client
  // already holds the origin's receipts; the topology synthesizes its own
  // "done:" when the result comes back.
}

bool Topology::origin_alive(const Relay& r) {
  const edge::EdgeServer& origin = fleet_.server(r.origin);
  return !origin.down() && origin.boot_epoch() == r.origin_epoch;
}

void Topology::finish_relay(Relay& r, const net::Message& result) {
  if (r.done) return;
  if (!origin_alive(r)) {
    // The edge the client is talking to died since the job climbed; its
    // endpoint must stay silent (a dead host cannot speak). The client's
    // supervisor times out and recovers — it never adopts this result, so
    // it can never diverge from the retry it is about to make.
    ++stats_.results_dropped;
    count("results_dropped");
    close_relay(r, "dropped");
    return;
  }
  if (r.origin_acks) {
    // The origin promised receipts; honor its contract before the result.
    net::Message done;
    done.type = net::MessageType::kControl;
    done.name = "done:" + r.app;
    r.reply_to->send(std::move(done));
  }
  net::Message reply;
  reply.type = net::MessageType::kResultSnapshot;
  reply.name = result.name;
  reply.payload = result.payload;
  reply.ctx = result.ctx;
  r.reply_to->send(std::move(reply));
  ++stats_.relays_completed;
  count("relays_completed");
  close_relay(r, "completed");
}

void Topology::fail_relay(Relay& r, const std::string& control) {
  if (r.done) return;
  if (!origin_alive(r)) {
    ++stats_.results_dropped;
    count("results_dropped");
    close_relay(r, "dropped");
    return;
  }
  net::Message msg;
  msg.type = net::MessageType::kControl;
  msg.name = control;
  r.reply_to->send(std::move(msg));
  ++stats_.relays_failed;
  count("relays_failed");
  close_relay(r, "failed");
}

void Topology::close_relay(Relay& r, const char* outcome) {
  r.done = true;
  if (r.watchdog.valid()) sim_.cancel(r.watchdog);
  r.payload = {};
  if (config_.obs && r.span) {
    config_.obs->trace.attr(r.span, "outcome", outcome);
    config_.obs->trace.close(r.span, sim_.now());
  }
  // The channel stays alive (in-flight deliveries may still reference
  // it); its handler ignores everything now that the relay is done.
}

std::size_t Topology::drain(std::size_t victim, std::size_t target) {
  edge::EdgeServer& v = fleet_.server(victim);
  const bool to_cloud = target == kCloud;
  std::size_t moved = 0;
  // Draining to the cloud leaves differential jobs queued at the victim:
  // their session realm lives there, and the client has no cloud
  // endpoint to be redirected to.
  while (auto job = v.steal_job(/*relayable_only=*/to_cloud)) {
    if (job->differential) {
      // Client-visible redirect: the supervisor re-targets the named
      // peer, re-presends, and replays — the one migration the snapshot
      // cannot make transparent.
      net::Message msg;
      msg.type = net::MessageType::kControl;
      msg.name = "redirect:" + std::to_string(target) + ":" + job->app;
      job->reply_to->send(std::move(msg));
      ++stats_.redirects;
      count("redirects");
      if (config_.obs) {
        config_.obs->trace.emit(job->ctx.trace, job->ctx.root,
                                obs::SpanKind::kMigrate,
                                "redirect:" + server_label(target), "tier",
                                sim_.now(), sim_.now(), 0.0);
      }
      ++moved;
      continue;
    }
    if (!v.model_store().can_instantiate(job->app)) {
      // Defensive: without the model the job cannot run anywhere else.
      // One typed failure beats a silent drop.
      net::Message msg;
      msg.type = net::MessageType::kControl;
      msg.name = "expired:" + job->app;
      job->reply_to->send(std::move(msg));
      ++stats_.relays_failed;
      count("relays_failed");
      ++moved;
      continue;
    }
    edge::EscalationRequest req;
    req.app = std::move(job->app);
    req.payload = std::move(job->payload);
    req.reply_to = job->reply_to;
    req.ctx = job->ctx;
    req.reason = "migrate";
    start_relay(victim, std::move(req), target, "migrate");
    ++stats_.drained;
    count("drained");
    ++moved;
  }
  return moved;
}

int Topology::outstanding_relays(std::size_t server) const {
  int n = 0;
  for (const auto& [id, r] : relays_) {
    if (!r.done && r.origin == server) ++n;
  }
  return n;
}

void Topology::arm_steal_tick() {
  if (!config_.steal || tick_armed_) return;
  tick_armed_ = true;
  sim_.schedule(config_.steal_interval, [this] { steal_tick(); });
}

void Topology::steal_tick() {
  tick_armed_ = false;
  ++stats_.steal_ticks;
  const std::size_t n = fleet_.servers_up();
  const sim::SimTime now = sim_.now();
  // A thief takes at most one job per tick (its queue gauge lags the
  // relay's model push, so without the cap one idle edge would soak up a
  // whole backlog sight-unseen).
  std::vector<char> took(n, 0);
  for (;;) {
    // Victim: the deepest backlog at or above the threshold (ties go to
    // the lowest index — deterministic).
    std::size_t victim = n;
    std::size_t deepest = std::max<std::size_t>(config_.steal_min_backlog, 1);
    for (std::size_t k = 0; k < n; ++k) {
      if (fleet_.server(k).down()) continue;
      const std::size_t depth = fleet_.server(k).scheduler().queue_depth();
      if (depth >= deepest && (victim == n || depth > deepest)) {
        victim = k;
        deepest = depth;
      }
    }
    if (victim == n) break;
    // Thieves: fully idle peers that have not taken a job this tick.
    std::vector<std::size_t> idle;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == victim || took[k] || fleet_.server(k).down()) continue;
      const serve::Scheduler& sched = fleet_.server(k).scheduler();
      if (sched.queue_depth() == 0 && sched.busy_lanes(now) == 0) {
        idle.push_back(k);
      }
    }
    if (idle.empty()) break;
    const std::size_t thief =
        idle[steal_rng_.next_below(static_cast<std::uint32_t>(idle.size()))];
    auto job = fleet_.server(victim).steal_job(/*relayable_only=*/true);
    if (!job ||
        !fleet_.server(victim).model_store().can_instantiate(job->app)) {
      if (job) {
        // Withdrawn but unrunnable elsewhere: typed failure, never lost.
        net::Message msg;
        msg.type = net::MessageType::kControl;
        msg.name = "expired:" + job->app;
        job->reply_to->send(std::move(msg));
        ++stats_.relays_failed;
        count("relays_failed");
      }
      break;
    }
    took[thief] = 1;
    edge::EscalationRequest req;
    req.app = std::move(job->app);
    req.payload = std::move(job->payload);
    req.reply_to = job->reply_to;
    req.ctx = job->ctx;
    req.reason = "steal";
    start_relay(victim, std::move(req), thief, "steal");
    ++stats_.steals;
    count("steals");
  }
  // Keep ticking while backlog remains; otherwise the tick dies with the
  // load and the next admission re-arms it.
  for (std::size_t k = 0; k < n; ++k) {
    if (!fleet_.server(k).down() &&
        fleet_.server(k).scheduler().queue_depth() > 0) {
      arm_steal_tick();
      break;
    }
  }
}

}  // namespace offload::tier
