// Host-time benchmark driver: one workload per process.
//
//   perfbench_driver --workload <paper_offload|heap_session|fleet_population>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --expected <expected.tsv> [--spans <dir>] [--smoke]
//   perfbench_driver --workload <w> --record <expected.tsv>
//
// A run sets up (builds plus one untimed warm-up op of each kind), then
// runs shuffled rounds of one op per kind until --seconds have passed.
// Every op's output is checked against the expected table; a mismatch,
// exception or unfinished app counts as a failed op. The last stdout line
// is the JSON result: with --trace 0 the end-to-end metrics, with --trace 1
// the per-layer metrics of the stage-by-stage replay. --record runs every
// (kind, variant) once and writes the expected table instead.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/nn/kernels.h"
#include "src/util/stats.h"
#include "src/workload.h"

namespace perfbench {
namespace {

namespace util = offload::util;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string expected;
  std::string record;
  std::string spans;
};

struct Metric {
  const char* name;
  const char* unit;
  double value = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v);
    else if (flag == "--trace") o.trace = std::atoi(v) != 0;
    else if (flag == "--expected") o.expected = v;
    else if (flag == "--record") o.record = v;
    else if (flag == "--spans") o.spans = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (o.expected.empty() && o.record.empty()) {
    usage("need --expected or --record");
  }
  return o;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// "VmHWM" / "VmRSS" of this process, in MB.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1) / 1024.0;
    }
  }
  return 0;
}

const char* isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "baseline";
}

std::string table_key(const std::string& workload, const std::string& kind,
                      std::uint32_t variant) {
  return workload + "\t" + kind + "\t" + std::to_string(variant);
}

std::map<std::string, std::string> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot read expected table " + path).c_str());
  std::map<std::string, std::string> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    table[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return table;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "paper_offload") return make_paper_offload(o.smoke);
  if (o.workload == "heap_session") return make_heap_session(o.smoke);
  if (o.workload == "fleet_population") return make_fleet_population(o.smoke);
  usage(("unknown workload '" + o.workload + "'").c_str());
}

int record(const Options& o, Workload& w) {
  std::ofstream out(o.record);
  if (!out) usage(("cannot write " + o.record).c_str());
  w.prepare();
  Tracer off(false);
  std::vector<Calibration> unused;
  const std::vector<std::string> kinds = w.kinds();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::uint32_t v = 0; v < kVariants; ++v) {
      out << table_key(o.workload, kinds[k], v) << "\t"
          << w.run(k, v, off, unused) << "\n";
    }
  }
  return out ? 0 : 1;
}

/// Runs ops and checks each output against the expected table.
class Checker {
 public:
  Checker(const Options& o, Workload& w)
      : workload_(o.workload), kinds_(w.kinds()), w_(w),
        expected_(load_expected(o.expected)) {}

  /// One op; returns its host ms, or a negative value if it failed.
  double run(std::size_t kind, std::uint32_t variant, Tracer& tracer,
             std::vector<Calibration>& calibration) {
    ++attempted_;
    const Clock::time_point t0 = Clock::now();
    std::string out;
    try {
      out = w_.run(kind, variant, tracer, calibration);
    } catch (const std::exception& e) {
      out = std::string("exception: ") + e.what();
    }
    const double ms = ms_between(t0, Clock::now());
    const std::string key = table_key(workload_, kinds_[kind], variant);
    auto it = expected_.find(key);
    if (it != expected_.end() && it->second == out) return ms;
    if (++failed_ <= 3) {
      std::fprintf(stderr, "FAILED op %s\n  expected: %s\n  got:      %s\n",
                   key.c_str(),
                   it == expected_.end() ? "(no row)" : it->second.c_str(),
                   out.c_str());
    }
    return -1;
  }

  /// Count ops checked elsewhere (a set-up in a child process).
  void add(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::size_t kinds() const { return kinds_.size(); }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::string workload_;
  std::vector<std::string> kinds_;
  Workload& w_;
  std::map<std::string, std::string> expected_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Set-ups per --trace 0 run; setup_s is their median. All but the last
/// run in forked child processes, so each is the cold set-up of a fresh
/// process, and the memory the program leaks per op stays out of the
/// timed process.
constexpr int kSetups = 3;

/// One set-up: the workload's builds plus one untimed warm-up op of each
/// kind, every output checked. Returns its seconds.
double set_up(Workload& w, Checker& checker) {
  const Clock::time_point start = Clock::now();
  w.prepare();
  Tracer off(false);
  std::vector<Calibration> unused;
  for (std::size_t k = 0; k < checker.kinds(); ++k) {
    checker.run(k, 0, off, unused);
  }
  return ms_between(start, Clock::now()) / 1e3;
}

struct ChildSetup {
  double seconds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One set-up of a fresh workload in a forked child process. Call before
/// the program starts its thread pool. Returns false if the child died.
bool set_up_in_child(const Options& o, ChildSetup& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    std::unique_ptr<Workload> w = make(o);
    Checker checker(o, *w);
    ChildSetup r;
    r.seconds = set_up(*w, checker);
    r.attempted = checker.attempted();
    r.failed = checker.failed();
    _exit(write(fds[1], &r, sizeof r) == sizeof r ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], &out, sizeof out) == sizeof out;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Calibration table: host ms per modeled second, by group, printed with
/// a drift flag; returns {overall, drift} for capture, restore and dnn.
std::vector<double> calibrate(const std::vector<Calibration>& samples) {
  std::map<std::string, Calibration> groups;
  Calibration all;
  for (const Calibration& s : samples) {
    for (Calibration* c : {&groups[s.group], &all}) {
      c->capture_host_ms += s.capture_host_ms;
      c->capture_model_s += s.capture_model_s;
      c->restore_host_ms += s.restore_host_ms;
      c->restore_model_s += s.restore_model_s;
      c->dnn_host_ms += s.dnn_host_ms;
      c->dnn_model_s += s.dnn_model_s;
    }
  }
  auto ratios = [](const Calibration& c) {
    return std::vector<double>{ratio(c.capture_host_ms, c.capture_model_s),
                               ratio(c.restore_host_ms, c.restore_model_s),
                               ratio(c.dnn_host_ms, c.dnn_model_s)};
  };
  std::vector<double> lo(3, INFINITY), hi(3, 0);
  std::printf(
      "calibration (host ms per modeled s): group capture restore dnn\n");
  for (const auto& [name, c] : groups) {
    const std::vector<double> r = ratios(c);
    std::printf("calib %-10s %10.3f %10.3f %10.3f\n", name.c_str(), r[0],
                r[1], r[2]);
    for (int i = 0; i < 3; ++i) {
      lo[i] = std::min(lo[i], r[i]);
      hi[i] = std::max(hi[i], r[i]);
    }
  }
  const std::vector<double> overall = ratios(all);
  std::vector<double> out;
  const char* names[] = {"capture", "restore", "dnn"};
  for (int i = 0; i < 3; ++i) {
    const double drift = lo[i] > 0 ? hi[i] / lo[i] : 0;
    if (drift > 2) {
      std::printf("calib DRIFT: %s ratio varies %.2fx across groups\n",
                  names[i], drift);
    }
    out.push_back(overall[i]);
    out.push_back(drift);
  }
  return out;
}

std::vector<Metric> layer_metrics(const Tracer& t, double ops,
                                  double rss_growth_mb,
                                  const std::vector<Calibration>& calib) {
  auto per_op = [&](const std::string& name) { return t.total_ms(name) / ops; };
  const double dnn_ms =
      t.total_ms("nn.forward") + t.total_ms("nn.front") + t.total_ms("nn.rear");
  const double capture_kb = t.counter("jsvm.capture_bytes") / 1024;
  const double restore_kb = t.counter("jsvm.restore_bytes") / 1024;
  const double requests = t.counter("fleet.requests");
  const std::vector<double> c = calibrate(calib);
  return {
      {"core.op_ms", "ms", per_op("core.op")},
      {"core.uncovered_ms", "ms",
       (t.total_ms("core.op") - t.covered_ms()) / ops},
      {"nn.build_ms", "ms", per_op("nn.build")},
      {"nn.forward_ms", "ms", per_op("nn.forward")},
      {"nn.front_ms", "ms", per_op("nn.front")},
      {"nn.rear_ms", "ms", per_op("nn.rear")},
      {"nn.gflop_per_op", "GFLOP", t.counter("nn.flop") / 1e9 / ops},
      {"nn.gflops_per_s", "GFLOP/s",
       ratio(t.counter("nn.flop") / 1e9, dnn_ms / 1e3)},
      {"model_io.save_ms", "ms", per_op("model_io.save")},
      {"model_io.mb_per_op", "MB", t.counter("model_io.bytes") / 1e6 / ops},
      {"crc.ms_per_pass", "ms",
       ratio(t.total_ms("crc"), t.counter("crc.passes"))},
      {"crc.mb_per_s", "MB/s",
       ratio(t.counter("crc.bytes") / 1e6, t.total_ms("crc") / 1e3)},
      {"protocol.encode_ms", "ms", per_op("protocol.encode")},
      {"protocol.decode_ms", "ms", per_op("protocol.decode")},
      {"model_store.instantiate_ms", "ms", per_op("model_store.instantiate")},
      {"net.wire_mb_per_op", "MB", t.counter("net.wire_bytes") / 1e6 / ops},
      {"jsvm.eval_ms", "ms", per_op("jsvm.eval")},
      {"jsvm.capture_ms", "ms", per_op("jsvm.capture")},
      {"jsvm.restore_ms", "ms", per_op("jsvm.restore")},
      {"jsvm.snapshot_kb", "KB", capture_kb / ops},
      {"jsvm.heap_objects", "count", t.counter("jsvm.heap_objects") / ops},
      {"jsvm.capture_us_per_kb", "us/KB",
       ratio(t.total_ms("jsvm.capture") * 1e3, capture_kb)},
      {"jsvm.restore_us_per_kb", "us/KB",
       ratio(t.total_ms("jsvm.restore") * 1e3, restore_kb)},
      {"obs.spans_per_op", "count", t.counter("obs.spans") / ops},
      {"sim.events_per_op", "count", t.counter("sim.events") / ops},
      {"sim.run_ms", "ms", per_op("sim.run")},
      {"sim.events_per_s", "events/s",
       ratio(t.counter("sim.events"), t.total_ms("sim.run") / 1e3)},
      {"serve.submit_us", "us",
       ratio(t.counter("serve.submit_ms") * 1e3, t.counter("serve.submits"))},
      {"serve.shed_ratio", "ratio", ratio(t.counter("serve.shed"), requests)},
      {"serve.peak_queue_depth", "count", t.counter("serve.peak_queue_depth")},
      {"serve.launches_per_op", "count", t.counter("serve.launches") / ops},
      {"fleet.route_us", "us",
       ratio(t.counter("fleet.route_ms") * 1e3, t.counter("fleet.routes"))},
      {"fleet.failover_hops_per_req", "count",
       ratio(t.counter("fleet.failover_hops"), requests)},
      {"proc.rss_growth_mb_per_op", "MB", rss_growth_mb / ops},
      {"calib.capture_host_per_model", "ms/s", c[0]},
      {"calib.capture_drift", "ratio", c[1]},
      {"calib.restore_host_per_model", "ms/s", c[2]},
      {"calib.restore_drift", "ratio", c[3]},
      {"calib.dnn_host_per_model", "ms/s", c[4]},
      {"calib.dnn_drift", "ratio", c[5]},
  };
}

/// End-to-end metrics from each kind's op times. A kind's typical time is
/// its 10th-percentile op: the host this runs on slows every op by up to
/// 1.7x for seconds at a time, and the low quantile keeps those stretches
/// out as long as part of the run is calm. Kinds differ in cost by up to
/// 60x, so op_ms_p10 is their geometric mean, while ops_per_s is the
/// closed-loop rate of a round of one op per kind.
std::vector<Metric> end_to_end(const std::vector<util::Samples>& op_ms,
                               double setup_s, double peak_rss_mb) {
  double round_ms = 0, log_sum = 0;
  std::size_t kinds = 0;
  for (const util::Samples& s : op_ms) {
    if (s.count() == 0) continue;
    const double p10 = s.percentile(10);
    round_ms += p10;
    log_sum += std::log(p10);
    ++kinds;
  }
  return {
      {"ops_per_s", "ops/s", ratio(static_cast<double>(kinds) * 1e3, round_ms)},
      {"op_ms_p10", "ms", kinds ? std::exp(log_sum / kinds) : 0},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"setup_s", "s", setup_s},
  };
}

void print_result(const Checker& checker, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checker.failed() == 0 ? "true" : "false", checker.attempted(),
              checker.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make(o);
  std::printf("host: nproc=%u isa=%s kernels=%s build=%s\n",
              std::thread::hardware_concurrency(), isa(),
              offload::nn::kernel_backend_name(
                  offload::nn::active_kernel_backend()),
              PERFBENCH_BUILD_TYPE);
  if (!o.record.empty()) return record(o, *w);

  Checker checker(o, *w);
  const std::vector<std::string> kind_names = w->kinds();
  const std::size_t kinds = kind_names.size();

  // Set-up: the traced run sets up once; the measured run kSetups times,
  // the last of them in this process.
  util::Samples setups;
  for (int i = 1; i < (o.trace ? 1 : kSetups); ++i) {
    ChildSetup child;
    if (!set_up_in_child(o, child)) {
      std::fprintf(stderr, "perfbench_driver: set-up process failed\n");
      return 1;
    }
    setups.add(child.seconds);
    checker.add(child.attempted, child.failed);
  }
  setups.add(set_up(*w, checker));
  // Peak RSS after the set-up: its ops are the same in every run, while
  // the program leaks per op, so a faster program running more timed ops
  // must not read as a memory regression.
  const double peak_rss_mb = proc_status_mb("VmHWM");

  // Timed rounds: every kind once per round, in a seeded order, each op
  // with a seeded variant.
  Tracer tracer(o.trace);
  std::vector<Calibration> calibration;
  std::vector<util::Samples> op_ms(kinds);  ///< by kind
  util::Samples all_ms;
  const double rss0 = proc_status_mb("VmRSS");
  std::vector<std::size_t> order(kinds);
  std::uint64_t rng = splitmix64(o.seed);
  std::size_t ops = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t k = 0; k < kinds; ++k) order[k] = k;
    for (std::size_t k = kinds; k > 1; --k) {
      rng = splitmix64(rng);
      std::swap(order[k - 1], order[rng % k]);
    }
    for (std::size_t kind : order) {
      rng = splitmix64(rng);
      tracer.set_op(ops++, kind_names[kind]);
      const double ms = checker.run(
          kind, static_cast<std::uint32_t>(rng % kVariants), tracer,
          calibration);
      if (ms >= 0) {
        op_ms[kind].add(ms);
        all_ms.add(ms);
      }
    }
  } while (!o.smoke && ms_between(start, Clock::now()) < o.seconds * 1e3);
  const double elapsed_s = ms_between(start, Clock::now()) / 1e3;
  const double rss_growth_mb = proc_status_mb("VmRSS") - rss0;

  std::printf("workload=%s seed=%llu ops=%zu elapsed_s=%.3f error_rate=%.6f "
              "op_ms_p50=%.3f op_ms_p90=%.3f\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              ops, elapsed_s,
              static_cast<double>(checker.failed()) /
                  static_cast<double>(checker.attempted()),
              all_ms.percentile(50), all_ms.percentile(90));

  if (o.trace) {
    const std::vector<Metric> metrics = layer_metrics(
        tracer, static_cast<double>(ops), rss_growth_mb, calibration);
    if (!o.spans.empty()) {
      const std::string path = o.spans + "/spans-" + o.workload + "-" +
                               std::to_string(o.seed) + ".json";
      if (!tracer.write_chrome(path)) {
        std::fprintf(stderr, "cannot write span file %s\n", path.c_str());
        return 1;
      }
      std::printf("spans: %s\n", path.c_str());
    }
    print_result(checker, metrics);
    return 0;
  }
  print_result(checker,
               end_to_end(op_ms, setups.median(), peak_rss_mb));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
