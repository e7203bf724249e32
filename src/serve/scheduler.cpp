#include "src/serve/scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace offload::serve {

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      return "queue_full";
  }
  return "unknown";
}

Scheduler::Scheduler(sim::Simulation& sim, SchedulerConfig config)
    : sim_(sim), config_(std::move(config)) {
  if (config_.replicas < 1) {
    throw std::invalid_argument("Scheduler: replicas must be >= 1");
  }
  lanes_.resize(static_cast<std::size_t>(config_.replicas));
}

SubmitResult Scheduler::submit_opaque(double busy_s, OpaqueDoneFn on_done,
                                      sim::SimTime deadline,
                                      ExpiredFn on_expired,
                                      obs::TraceContext ctx) {
  SubmitResult result;
  obs::Obs* obs = config_.obs;
  if (!would_admit()) {
    ++stats_.rejected;
    result.reject = {RejectReason::kQueueFull, pending_.size()};
    if (obs) {
      obs->metrics.add(config_.obs_name + ".rejected.queue_full");
      obs->trace.marker(ctx.trace, ctx.root, "reject:queue_full",
                        config_.obs_name + "/queue", sim_.now());
    }
    return result;
  }
  Job job;
  job.id = next_id_++;
  job.busy_s = busy_s;
  job.submitted = sim_.now();
  job.deadline = deadline;
  job.on_done = std::move(on_done);
  job.on_expired = std::move(on_expired);
  job.ctx = ctx;
  ++stats_.submitted;
  result.admitted = true;
  result.id = job.id;
  pending_.push_back(std::move(job));
  stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, pending_.size());
  if (obs) obs->metrics.add(config_.obs_name + ".submitted");
  note_queue_depth();
  pump();
  return result;
}

bool Scheduler::cancel(std::uint64_t id) {
  auto it = std::find_if(pending_.begin(), pending_.end(),
                         [id](const Job& job) { return job.id == id; });
  if (it == pending_.end()) return false;
  pending_.erase(it);
  ++stats_.cancelled;
  if (config_.obs) {
    config_.obs->metrics.add(config_.obs_name + ".cancelled");
  }
  note_queue_depth();
  arm_expiry();
  return true;
}

void Scheduler::note_queue_depth() {
  if (config_.obs) {
    config_.obs->metrics.set_gauge(config_.obs_name + ".queue_depth",
                                   static_cast<std::int64_t>(pending_.size()));
  }
}

void Scheduler::expire_overdue() {
  // Collect first, then erase, then notify: an expiry callback may
  // synchronously submit follow-up work that re-enters the scheduler.
  std::vector<Job> expired;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->deadline < sim_.now()) {
      expired.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (!expired.empty()) note_queue_depth();
  for (Job& job : expired) {
    ++stats_.expired;
    if (config_.obs) {
      config_.obs->metrics.add(config_.obs_name + ".expired");
      config_.obs->trace.marker(job.ctx.trace, job.ctx.root, "expired",
                                config_.obs_name + "/queue", sim_.now());
    }
    if (job.on_expired) {
      RequestTiming t;
      t.submitted = job.submitted;
      t.dispatched = sim_.now();
      t.completed = sim_.now();
      t.queue_wait_s = (sim_.now() - job.submitted).to_seconds();
      job.on_expired(t);
    }
  }
}

void Scheduler::arm_expiry() {
  sim::SimTime earliest = sim::SimTime::max();
  for (const Job& job : pending_) earliest = std::min(earliest, job.deadline);
  if (earliest == expiry_at_) return;
  sim_.cancel(expiry_timer_);
  expiry_timer_ = {};
  expiry_at_ = earliest;
  if (earliest == sim::SimTime::max()) return;
  // Strict expiry: the first instant past the deadline, never the past.
  const sim::SimTime when =
      std::max(earliest + sim::SimTime::nanos(1), sim_.now());
  expiry_timer_ = sim_.schedule_at(when, [this] {
    expiry_timer_ = {};
    expiry_at_ = sim::SimTime::max();
    expire_overdue();
    arm_expiry();
  });
}

void Scheduler::pump() {
  expire_overdue();
  while (!pending_.empty()) {
    auto idle = std::find_if(
        lanes_.begin(), lanes_.end(),
        [this](const Lane& l) { return l.busy_until <= sim_.now(); });
    if (idle == lanes_.end()) break;
    dispatch(static_cast<int>(idle - lanes_.begin()));
  }
  arm_expiry();
}

void Scheduler::dispatch(int lane) {
  const sim::SimTime now = sim_.now();
  Job job = std::move(pending_.front());
  pending_.pop_front();
  const sim::SimTime end = now + sim::SimTime::seconds(job.busy_s);

  Lane& l = lanes_[static_cast<std::size_t>(lane)];
  // The wait splits where the job could first have run: its submission or
  // the end of the lane's previous job, whichever is later. The lane's
  // previous busy_until is that end even when this dispatch runs at the
  // completion instant ahead of the completion event itself.
  const sim::SimTime available = std::max(job.submitted, l.busy_until);
  RequestTiming t;
  t.submitted = job.submitted;
  t.dispatched = now;
  t.completed = end;
  t.queue_wait_s = (available - job.submitted).to_seconds();
  t.batch_wait_s = (now - available).to_seconds();
  t.compute_s = job.busy_s;
  t.replica = lane;
  // One lane-busy span per job, with its wait spans on the job's own
  // trace. Callers receive the busy-span id through RequestTiming so their
  // restore/execute/capture sub-spans can nest in the lane interval.
  if (obs::Obs* obs = config_.obs) {
    const std::string lane_res =
        config_.obs_name + "/lane" + std::to_string(lane);
    t.busy_span =
        obs->trace.emit(job.ctx.trace, job.ctx.root, obs::SpanKind::kLaneBusy,
                        "launch", lane_res, now, end, job.busy_s);
    obs->trace.attr(t.busy_span, "batch_size", std::int64_t{1});
    obs->trace.emit(job.ctx.trace, job.ctx.root, obs::SpanKind::kQueueWait,
                    "queue_wait", config_.obs_name + "/queue", job.submitted,
                    available, t.queue_wait_s);
    obs->trace.emit(job.ctx.trace, job.ctx.root, obs::SpanKind::kBatchWait,
                    "batch_wait", config_.obs_name + "/queue", available, now,
                    t.batch_wait_s);
  }
  l.busy_until = end;
  note_queue_depth();
  ++stats_.launches;

  sim_.schedule_at(end, [this, job = std::move(job), t]() mutable {
    complete(std::move(job), t);
  });
}

void Scheduler::complete(Job job, const RequestTiming& t) {
  if (obs::Obs* obs = config_.obs) {
    obs->metrics.add(config_.obs_name + ".completed");
    obs->metrics.observe(config_.obs_name + ".queue_wait_ms",
                         t.queue_wait_s * 1e3);
    obs->metrics.observe(config_.obs_name + ".batch_wait_ms",
                         t.batch_wait_s * 1e3);
    obs->metrics.observe(config_.obs_name + ".total_ms", t.total_s() * 1e3);
    obs->metrics.observe(config_.obs_name + ".compute_ms", t.compute_s * 1e3);
  }
  ++stats_.completed;
  if (job.on_done) job.on_done(t);
  pump();
}

}  // namespace offload::serve
