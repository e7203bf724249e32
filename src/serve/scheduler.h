// The serving scheduler: one bounded FIFO queue of opaque jobs from many
// concurrent clients over a pool of replica lanes.
//
// Each job is one self-contained snapshot execution on the edge server: a
// precomputed busy time that occupies one lane. Jobs run in admission
// order; nothing is ever fused or reordered.
//
// Event-driven over the discrete-event simulation: a job dispatches only
// when a lane is idle at the current sim time; lane completions re-pump
// the queue, and one timer expires queued jobs at their deadlines. All
// decisions depend only on sim time and admission order, so results are
// deterministic at any OFFLOAD_THREADS.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/serve/request.h"
#include "src/sim/simulation.h"

namespace offload::serve {

struct SchedulerConfig {
  /// Replica lanes. Each lane executes one job at a time; the whole pool
  /// shares the one queue.
  int replicas = 1;
  /// Admission bound on the pending queue; submissions beyond it are shed
  /// with Reject{kQueueFull}. 0 = unbounded.
  std::size_t max_queue = 0;
  /// Observability sink (optional). When set, the scheduler maintains a
  /// queue-depth gauge, submission/completion/shed counters, and wait
  /// histograms (all keys prefixed "<obs_name>."), and emits queue-wait /
  /// batch-wait / lane-busy spans per dispatched job. Null disables all of
  /// it at the cost of one branch per site.
  obs::Obs* obs = nullptr;
  /// Metric-key and span-resource prefix for this scheduler instance, so
  /// several schedulers (e.g. primary + secondary edge server) can share
  /// one registry without colliding.
  std::string obs_name = "serve";
};

class Scheduler {
 public:
  Scheduler(sim::Simulation& sim, SchedulerConfig config);

  /// Opaque job: occupies a lane for exactly `busy_s`. `on_done` runs at
  /// the completion sim-time. A job with a finite `deadline` that is
  /// still queued once the deadline has passed is dropped instead, and
  /// `on_expired` fires at that instant. `ctx` ties the job's spans into
  /// the submitting request's trace.
  SubmitResult submit_opaque(double busy_s, OpaqueDoneFn on_done,
                             sim::SimTime deadline = sim::SimTime::max(),
                             ExpiredFn on_expired = nullptr,
                             obs::TraceContext ctx = {});

  /// Withdraw a still-queued job (work stealing / session migration). The
  /// job's callbacks never fire; the caller owns its fate from here on.
  /// Returns false when `id` is unknown, already dispatched, or done.
  bool cancel(std::uint64_t id);

  std::size_t queue_depth() const { return pending_.size(); }
  /// Cheap pull-style load signals for the partition-point controller (and
  /// tests): no metrics-registry round-trip, just the scheduler's own
  /// state. Parity with the obs gauges is asserted in serve_test.
  int lanes() const { return static_cast<int>(lanes_.size()); }
  /// Lanes whose current job is still running at `now`.
  int busy_lanes(sim::SimTime now) const {
    int n = 0;
    for (const Lane& l : lanes_) {
      if (l.busy_until > now) ++n;
    }
    return n;
  }
  /// Whether a submission at this instant would pass admission control.
  /// Lets callers shed *before* doing per-request work (e.g. the edge
  /// server refuses a snapshot before restoring it).
  bool would_admit() const {
    return config_.max_queue == 0 || pending_.size() < config_.max_queue;
  }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;   ///< load-shed at admission
    std::uint64_t expired = 0;    ///< cancelled in-queue past their deadline
    std::uint64_t cancelled = 0;  ///< withdrawn in-queue via cancel()
    std::uint64_t launches = 0;   ///< lane dispatches (one job each)
    std::size_t peak_queue_depth = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    double busy_s = 0;
    sim::SimTime submitted;
    sim::SimTime deadline = sim::SimTime::max();
    OpaqueDoneFn on_done;
    ExpiredFn on_expired;
    obs::TraceContext ctx;
  };

  struct Lane {
    sim::SimTime busy_until;
  };

  /// Refresh the queue-depth gauge after any pending_ mutation.
  void note_queue_depth();
  /// Drop queued jobs whose deadline has passed.
  void expire_overdue();
  /// Keep the expiry timer just past the earliest finite queued deadline
  /// (a job expires once `deadline < now`), or drop it when none is queued.
  void arm_expiry();
  /// Dispatch queued jobs, oldest first, while a lane is idle.
  void pump();
  /// Take the oldest queued job out of pending_ and run it on `lane` now.
  void dispatch(int lane);
  void complete(Job job, const RequestTiming& timing);

  sim::Simulation& sim_;
  SchedulerConfig config_;
  std::deque<Job> pending_;  ///< admission order
  std::vector<Lane> lanes_;
  std::uint64_t next_id_ = 1;
  sim::EventHandle expiry_timer_;
  sim::SimTime expiry_at_ = sim::SimTime::max();  ///< deadline it serves
  Stats stats_;
};

}  // namespace offload::serve
