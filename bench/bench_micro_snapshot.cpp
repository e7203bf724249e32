// Microbenchmarks (google-benchmark) for the snapshot engine: capture and
// restore throughput versus heap size and typed-array payload, plus the
// text-expansion factor the partitioner's estimate relies on.
#include <benchmark/benchmark.h>

#include "src/jsvm/snapshot.h"

namespace {

using namespace offload;

std::string heap_program(int objects) {
  std::string src =
      "var root = [];\n"
      "for (var i = 0; i < " + std::to_string(objects) + "; i++) {\n"
      "  root.push({id: i, name: 'node' + i, tags: [i, i * 2], child: null});\n"
      "  if (i > 0) { root[i].child = root[i - 1]; }\n"
      "}\n";
  return src;
}

void BM_SnapshotCaptureHeap(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(heap_program(static_cast<int>(state.range(0))));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto snap = jsvm::capture_snapshot(interp);
    bytes = snap.stats.total_bytes;
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["MB/s"] = benchmark::Counter(
      static_cast<double>(bytes) * static_cast<double>(state.iterations()) /
          1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotCaptureHeap)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotRestoreHeap(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(heap_program(static_cast<int>(state.range(0))));
  auto snap = jsvm::capture_snapshot(interp);
  for (auto _ : state) {
    jsvm::Interpreter fresh;
    jsvm::restore_snapshot(fresh, snap.program);
    benchmark::DoNotOptimize(fresh.globals());
  }
}
BENCHMARK(BM_SnapshotRestoreHeap)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotTypedArray(benchmark::State& state) {
  // Feature-data path: one big Float32Array (decimal-text encoding).
  jsvm::Interpreter interp;
  const auto n = state.range(0);
  interp.eval_program(
      "var feature = Float32Array(" + std::to_string(n) + ");\n"
      "for (var i = 0; i < feature.length; i++) {\n"
      "  feature[i] = i * 0.001 - 17.5;\n"
      "}\n");
  std::uint64_t text_bytes = 0;
  for (auto _ : state) {
    auto snap = jsvm::capture_snapshot(interp);
    text_bytes = snap.stats.typed_array_bytes;
    benchmark::DoNotOptimize(snap);
  }
  state.counters["text_expansion"] =
      static_cast<double>(text_bytes) / (static_cast<double>(n) * 4.0);
}
BENCHMARK(BM_SnapshotTypedArray)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(802'816)  // GoogLeNet conv1 feature (64x112x112)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotTypedArrayBase64(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(
      "var feature = Float32Array(100000);\n"
      "for (var i = 0; i < feature.length; i++) {\n"
      "  feature[i] = i * 0.001 - 17.5;\n"
      "}\n");
  jsvm::SnapshotOptions opts;
  opts.base64_typed_arrays = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(jsvm::capture_snapshot(interp, opts));
  }
}
BENCHMARK(BM_SnapshotTypedArrayBase64)->Unit(benchmark::kMillisecond);

void BM_SnapshotRoundTripWithPendingEvent(benchmark::State& state) {
  jsvm::Interpreter interp;
  interp.eval_program(
      "var n = 0;\n"
      "var btn = document.createElement('button');\n"
      "document.body.appendChild(btn);\n"
      "btn.addEventListener('go', function() { n = n + 1; });\n"
      "btn.dispatchEvent('go');\n");
  auto snap = jsvm::capture_snapshot(interp);
  for (auto _ : state) {
    jsvm::Interpreter fresh;
    jsvm::restore_snapshot(fresh, snap.program);
    fresh.run_events();
    benchmark::DoNotOptimize(fresh.stats());
  }
}
BENCHMARK(BM_SnapshotRoundTripWithPendingEvent)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
