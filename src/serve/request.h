// Typed replies and per-request timing for the serving scheduler. Every
// job is opaque: a precomputed busy time (the snapshot restore + execute
// + capture path of the edge server), each one a full JS VM execution
// with its own realm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/sim/time.h"

namespace offload::serve {

/// Why a submission was refused admission.
enum class RejectReason {
  kQueueFull,  ///< pending queue at its configured bound — load shed
};

const char* reject_reason_name(RejectReason reason);

/// Typed load-shed reply. The edge server forwards this to the client as
/// an "overloaded:" control message; clients fall back to local execution.
struct Reject {
  RejectReason reason = RejectReason::kQueueFull;
  std::size_t queue_depth = 0;  ///< pending jobs at the moment of rejection
};

/// Per-request latency breakdown, filled by the scheduler.
///
/// The wait is split at `available` = max(submitted, end of the lane's
/// previous job): time before `available` the request was blocked behind
/// other work (queue wait); time after it the lane sat idle before the
/// dispatch (batch wait). Jobs dispatch the moment a lane frees, so batch
/// wait is zero and queue wait reproduces the single-lane FIFO
/// reservation model bit-for-bit.
struct RequestTiming {
  sim::SimTime submitted;
  sim::SimTime dispatched;
  sim::SimTime completed;
  double queue_wait_s = 0;  ///< waited for a replica (contention)
  double batch_wait_s = 0;  ///< lane free, job not yet dispatched
  double compute_s = 0;     ///< the job's busy time on the lane
  int replica = 0;          ///< lane index that executed the job
  /// Obs span id of the lane-busy span covering this job's launch (0 when
  /// the scheduler has no obs sink). Lets callers parent their own
  /// sub-spans (e.g. the edge server's restore/execute/capture) inside
  /// the lane interval.
  std::uint64_t busy_span = 0;

  double total_s() const { return (completed - submitted).to_seconds(); }
};

/// Completion callback for opaque jobs, invoked at the completion sim-time.
using OpaqueDoneFn = std::function<void(const RequestTiming&)>;
/// Expiry callback: the job's deadline passed while it was still queued
/// and the scheduler cancelled it. The timing records submitted and the
/// cancellation time (`completed`); no compute ever ran.
using ExpiredFn = std::function<void(const RequestTiming&)>;

/// Outcome of a submit call. Admission is decided synchronously.
struct SubmitResult {
  bool admitted = false;
  std::uint64_t id = 0;  ///< admission sequence number (valid if admitted)
  Reject reject;         ///< valid if !admitted
};

}  // namespace offload::serve
