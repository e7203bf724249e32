// Table I: overhead of VM-based installation versus snapshot-based
// offloading. For each app: the VM overlay size and synthesis time
// (upload at 30 Mbps + decompress/apply), and the snapshot migration time
// and non-feature snapshot size with and without pre-sending.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/offload.h"
#include "src/vmsynth/overlay.h"
#include "src/vmsynth/vmimage.h"

namespace {

struct Row {
  double synthesis_s;
  double overlay_mb;
  double mig_presend_s;
  double snap_presend_mb;
  double mig_nopresend_s;
  double snap_nopresend_mb;
};

}  // namespace

int main() {
  using namespace offload;
  bench::print_banner(
      "Table I — Overhead of VM-based installation vs snapshot-based "
      "offloading",
      "VM synthesis ~20-25 s dominated by the 65/82 MB overlay upload; "
      "snapshot migration sub-second with pre-sending and ~= model "
      "transfer time (7.8 s / 12.1 s) without");

  const double kBandwidth = 30e6;
  util::TextTable table;
  table.header({"Configuration", "Metric", "GoogleNet", "AgeNet",
                "GenderNet"});
  std::vector<Row> rows;

  for (const auto& model : nn::benchmark_models()) {
    std::fprintf(stderr, "[table1] %s: building VM overlay...\n",
                 model.app_name);
    Row row{};
    auto net = model.build(model.seed);

    // --- VM synthesis arm -------------------------------------------------
    vmsynth::VmImage base = vmsynth::make_base_image();
    std::vector<std::pair<std::string, util::Bytes>> model_blobs;
    for (auto& f : nn::model_files(*net)) {
      model_blobs.emplace_back(
          f.name, util::Bytes(f.bytes().begin(), f.bytes().end()));
    }
    vmsynth::VmImage customized = vmsynth::make_customized_image(
        base, vmsynth::SystemBundleSizes{}, model_blobs);
    vmsynth::VmOverlay overlay = vmsynth::create_overlay(base, customized);
    row.overlay_mb = static_cast<double>(overlay.payload.size()) / 1e6;
    double upload_s =
        static_cast<double>(overlay.payload.size()) * 8.0 / kBandwidth;
    row.synthesis_s =
        upload_s + vmsynth::synthesis_compute_seconds(overlay.stats);

    // --- Snapshot offloading arms ----------------------------------------
    std::fprintf(stderr, "[table1] %s: snapshot migrations...\n",
                 model.app_name);
    core::RunResult with_presend =
        core::run_scenario(model, core::Scenario::kOffloadAfterAck, {});
    row.mig_presend_s = with_presend.breakdown.snapshot_capture_client +
                        with_presend.breakdown.transmission_up +
                        with_presend.breakdown.snapshot_restore_server;
    row.snap_presend_mb =
        static_cast<double>(
            with_presend.timeline.snapshot_stats.non_feature_bytes()) /
        1e6;

    core::RunResult no_presend =
        core::run_scenario(model, core::Scenario::kOffloadBeforeAck, {});
    row.mig_nopresend_s = no_presend.breakdown.snapshot_capture_client +
                          no_presend.breakdown.transmission_up +
                          no_presend.breakdown.snapshot_restore_server;
    // Without pre-sending the model rides with the snapshot; the paper's
    // "snapshot except feature data" counts it (27 / 44 / 44 MB).
    row.snap_nopresend_mb =
        static_cast<double>(
            no_presend.timeline.snapshot_stats.non_feature_bytes() +
            no_presend.timeline.model_upload_bytes) /
        1e6;
    rows.push_back(row);
  }

  auto row_of = [&](const char* config, const char* metric, auto getter,
                    int decimals) {
    std::vector<std::string> cells = {config, metric};
    for (const auto& r : rows) {
      cells.push_back(util::format_fixed(getter(r), decimals));
    }
    table.row(std::move(cells));
  };
  row_of("VM synthesis", "Synthesis time (s)",
         [](const Row& r) { return r.synthesis_s; }, 2);
  row_of("VM synthesis", "VM overlay (MB)",
         [](const Row& r) { return r.overlay_mb; }, 0);
  row_of("Snapshot offloading (w/ pre-send)", "Migration time (s)",
         [](const Row& r) { return r.mig_presend_s; }, 2);
  row_of("Snapshot offloading (w/ pre-send)", "Snapshot excl. feature (MB)",
         [](const Row& r) { return r.snap_presend_mb; }, 3);
  row_of("Snapshot offloading (w/o pre-send)", "Migration time (s)",
         [](const Row& r) { return r.mig_nopresend_s; }, 2);
  row_of("Snapshot offloading (w/o pre-send)", "Snapshot excl. feature (MB)",
         [](const Row& r) { return r.snap_nopresend_mb; }, 0);

  std::printf("%s", table.str().c_str());
  std::printf(
      "\nPaper values: synthesis 19.31/24.29/24.31 s; overlay 65/82/82 MB; "
      "migration w/ pre-send 0.60/0.34/0.34 s; w/o 7.79/12.07/12.07 s.\n"
      "Our snapshot-excl-feature is smaller than the paper's 0.09/0.02 MB "
      "because the ML framework here is a native host binding, not ~90 KB "
      "of bundled JS (see EXPERIMENTS.md).\n");
  return 0;
}
