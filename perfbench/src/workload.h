// The benchmark's workload interface. A workload is a closed loop of ops:
// timed calls from the benchmark into one public entry point of the
// program. Every op has a kind and a variant; (kind, variant) fixes the
// op's inputs completely, so its output can be checked against the
// expected table (perfbench/expected.tsv). The run's --seed picks the
// order of the kinds and the variant of each op.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/tracer.h"

namespace perfbench {

/// Variants per op kind: the expected table holds one row per
/// (workload, kind, variant).
constexpr std::uint32_t kVariants = 4;

/// A double with every digit, for the expected table.
inline std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One calibration sample: host ms measured by the replay against the
/// modeled seconds the program charged for the same step.
struct Calibration {
  std::string group;  ///< model name (paper_offload) or heap bucket
  double capture_host_ms = 0, capture_model_s = 0;
  double restore_host_ms = 0, restore_model_s = 0;
  double dnn_host_ms = 0, dnn_model_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Op kind names, e.g. "agenet/partial".
  virtual std::vector<std::string> kinds() const = 0;

  /// Builds shared by every op (models, sources). Counted in setup_s.
  virtual void prepare() {}

  /// Run one op and return its canonical output text. With tracer.on(),
  /// also replay the op stage by stage into the tracer's spans/counters
  /// and append a calibration sample.
  virtual std::string run(std::size_t kind, std::uint32_t variant,
                          Tracer& tracer,
                          std::vector<Calibration>& calibration) = 0;
};

std::unique_ptr<Workload> make_paper_offload(bool smoke);
std::unique_ptr<Workload> make_heap_session(bool smoke);
std::unique_ptr<Workload> make_fleet_population(bool smoke);

}  // namespace perfbench
