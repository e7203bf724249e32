// The snapshot writer: serializes the live execution state of a realm —
// globals, the reachable heap graph (with cycles and shared references),
// closures and their captured environments, the DOM tree with listeners,
// and the pending event queue — into *another MicroJS program*. Running
// that program on a fresh realm (any browser equipped with the same
// ambient host functions) restores the state and re-dispatches the pending
// events, which is the paper's core mechanism (Section III.A).
//
// Snapshot optimizations reproduced from the paper:
//  - Host objects (the loaded DNN model) are not embedded; they re-acquire
//    themselves via their restore expression (e.g. __loadModel("agenet")),
//    which is what makes pre-sending the model pay off (Section III.B.1).
//  - Ambient globals (console, Math, document, ...) are skipped.
//  - Optional base64 typed-array encoding shrinks feature tensors ~3.4x
//    versus decimal text (an extension; the paper serializes as text).
//
// Differential snapshots — the paper's Section VI future work, realized:
// after the first offload, client and server share a common state (the
// result snapshot). Subsequent offloads ship only the *changes* since that
// common state; the server applies them to the session realm it kept. One
// writer serves both: the diff is the same heap walk and emitter, rooted at
// the changed globals and stopping at attached DOM nodes.
//
// The diff degrades to a full snapshot whenever correctness would be at
// risk: when the DOM structure changed (nodes added/removed/re-tagged,
// listeners changed) or when a changed global's heap subgraph shares
// objects with an unchanged one (rebuilding the shared object would split
// identities). Content-only DOM changes (text, attributes, canvas pixels)
// diff per node via the __domByIndex intrinsic.
#pragma once

#include <cstdint>
#include <string>

#include "src/jsvm/fingerprint.h"
#include "src/jsvm/interpreter.h"

namespace offload::jsvm {

struct SnapshotOptions {
  /// Encode Float32Array contents as base64 (__f32b64) instead of decimal
  /// number lists (__f32). Off by default: the paper's snapshot sizes
  /// (14.7 MB for a raw 3.2 MB conv output) come from decimal text.
  bool base64_typed_arrays = false;
};

struct SnapshotStats {
  std::uint64_t total_bytes = 0;
  /// Bytes spent encoding typed arrays — the "feature data" portion that
  /// Table 1 reports separately ("snapshot except feature data").
  std::uint64_t typed_array_bytes = 0;
  std::size_t objects = 0;
  std::size_t arrays = 0;
  std::size_t typed_arrays = 0;
  std::size_t functions = 0;
  std::size_t environments = 0;
  std::size_t dom_nodes = 0;
  std::size_t globals = 0;
  std::size_t events = 0;

  std::uint64_t non_feature_bytes() const {
    return total_bytes - typed_array_bytes;
  }
};

struct SnapshotResult {
  std::string program;  ///< self-contained MicroJS restore program
  SnapshotStats stats;
};

/// Capture the full execution state of `interp`.
SnapshotResult capture_snapshot(Interpreter& interp,
                                const SnapshotOptions& options = {});

struct DiffSnapshotResult {
  std::string program;  ///< apply to the realm holding the baseline state
  SnapshotStats stats;
  /// True when the writer had to fall back to a full snapshot (apply to a
  /// fresh realm instead).
  bool full_fallback = false;
  /// The baseline this diff applies to (fingerprint version handshake).
  std::uint64_t base_version = 0;
};

/// Capture the difference between the realm's current state and
/// `baseline` (recorded with fingerprint_realm at the last common point).
DiffSnapshotResult capture_snapshot_diff(Interpreter& interp,
                                         const RealmFingerprint& baseline,
                                         const SnapshotOptions& options = {});

/// Restore = execute the snapshot program on a (fresh) realm. Provided for
/// symmetry and for counting restore work.
void restore_snapshot(Interpreter& interp, const std::string& program);

}  // namespace offload::jsvm
