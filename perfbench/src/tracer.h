// Host-time tracing for the benchmark's traced run. Spans are recorded by
// the benchmark itself around its calls into each layer's public functions
// (never inside the program), kept in memory, and written out as a Chrome
// trace when the run ends. Each span also adds its duration to a per-name
// total, and `add` keeps counters at the same boundaries, so per-layer
// metrics are ratios of what was measured where the work happened.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  /// Whether this is the traced run. Workloads replay ops only when on.
  bool on() const { return on_; }

  /// Time `fn` as a span named `name`. `covered` marks a replayed layer
  /// call: its time counts toward the op's covered time, and
  /// core.uncovered_ms is the op time no covered span explains.
  template <class F>
  decltype(auto) span(const std::string& name, F&& fn, bool covered = true) {
    const Clock::time_point start = Clock::now();
    ++depth_;
    struct Close {
      Tracer& t;
      const std::string& name;
      Clock::time_point start;
      bool covered;
      ~Close() {
        --t.depth_;
        t.record(name, start, Clock::now(), covered);
      }
    } close{*this, name, start, covered};
    return std::forward<F>(fn)();
  }

  /// Add `v` to the counter `key`.
  void add(const std::string& key, double v) { counters_[key] += v; }
  /// Keep the maximum of `v` under `key`.
  void max(const std::string& key, double v);

  /// Sum of span durations recorded under `name`, in ms.
  double total_ms(const std::string& name) const;
  double counter(const std::string& key) const;
  double covered_ms() const { return covered_ms_; }

  /// Mark the spans recorded from here on as belonging to op number `op`
  /// of kind `kind`.
  void set_op(std::size_t op, std::string kind) {
    op_ = op;
    kind_ = std::move(kind);
  }

  /// Write every span as a Chrome trace_event JSON array.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::size_t op;
    std::string kind;
    int depth;
    double start_us;
    double dur_us;
  };
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, bool covered);

  bool on_;
  Clock::time_point origin_;
  int depth_ = 0;
  std::size_t op_ = 0;
  std::string kind_;
  double covered_ms_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, double> totals_ms_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
