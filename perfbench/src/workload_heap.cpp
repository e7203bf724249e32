// heap_session: snapshot-heavy offloads with a small model. One op is one
// OffloadingRuntime::run() of a labelled-classifier app on
// nn::build_tiny_cnn (~0.5 MB of weights). The app's JS heap holds a
// 1000-entry label table, like a Caffe.js ImageNet demo, plus a result
// history per session. The op kind is the history-size bucket; the
// variant lengthens the history a little within the bucket and picks the
// input image. Host time here is jsvm capture/parse/restore; the bytes
// path and the DNN barely register.
#include <iterator>

#include "src/core/app.h"
#include "src/core/experiment.h"
#include "src/core/runtime.h"
#include "src/nn/models.h"
#include "src/replay.h"
#include "src/workload.h"

namespace perfbench {
namespace {

using namespace offload;

struct Bucket {
  const char* name;
  int history;  ///< result-history entries at variant 0
};
constexpr Bucket kBuckets[] = {{"small", 500}, {"medium", 2000},
                               {"large", 4000}};
constexpr int kHistoryStep = 4;  ///< extra entries per variant

std::string app_source(const std::string& model, int history) {
  return
      "var model = loadModel(\"" + model + "\");\n"
      "var labels = [];\n"
      "for (var i = 0; i < 1000; i++) {\n"
      "  labels.push({id: i, wnid: 'n' + (1440764 + i * 37),\n"
      "               name: 'class ' + i});\n"
      "}\n"
      "var history = [];\n"
      "for (var j = 0; j < " + std::to_string(history) + "; j++) {\n"
      "  history.push({label: labels[(j * 7919) % 1000],\n"
      "                score: ((j * 31) % 997) / 997, at: j});\n"
      "}\n"
      "var canvas = document.createElement('canvas');\n"
      "canvas.id = 'canvas';\n"
      "document.body.appendChild(canvas);\n"
      "canvas.setImageData(loadImage('input'));\n"
      "var btn = document.createElement('button');\n"
      "btn.id = 'btn';\n"
      "document.body.appendChild(btn);\n"
      "var result = document.createElement('div');\n"
      "result.id = 'result';\n"
      "document.body.appendChild(result);\n"
      "btn.addEventListener('click', function() {\n"
      "  var scores = model.inference(canvas.getImageData());\n"
      "  var best = 0;\n"
      "  for (var i = 1; i < scores.length; i++) {\n"
      "    if (scores[i] > scores[best]) { best = i; }\n"
      "  }\n"
      "  history.push({label: labels[best], score: scores[best],\n"
      "                at: history.length});\n"
      "  result.textContent = labels[best].name + ' ' + scores[best] +\n"
      "                       ' after ' + history.length;\n"
      "});\n";
}

class HeapSession : public Workload {
 public:
  explicit HeapSession(bool smoke) : smoke_(smoke) {}

  std::vector<std::string> kinds() const override {
    std::vector<std::string> out;
    for (std::size_t b = 0; b < kind_count(); ++b) {
      out.push_back(kBuckets[b].name);
    }
    return out;
  }

  void prepare() override { network_ = build(); }

  std::string run(std::size_t kind, std::uint32_t variant, Tracer& t,
                  std::vector<Calibration>& calibration) override {
    edge::AppBundle app = bundle(kind, variant, network_);
    core::RuntimeConfig config;
    config.click_at =
        core::after_ack_click_time(*app.network, false, 0, 30e6);

    core::RunResult r;
    std::size_t spans = 0;
    t.span(
        "core.op",
        [&] {
          core::OffloadingRuntime runtime(config, app);
          r = runtime.run();
          spans = runtime.obs().trace.size();
        },
        /*covered=*/false);

    if (t.on()) {
      Calibration calib;
      calib.group = kBuckets[kind].name;
      // The replay shares the prepared network, as the op does: neither
      // builds one.
      replay_offload(app, SIZE_MAX, "click", t, calib);
      account(r, calib, t);
      calibration.push_back(calib);
      t.add("obs.spans", static_cast<double>(spans));
    }
    return describe(r);
  }

 private:
  std::size_t kind_count() const { return smoke_ ? 1 : std::size(kBuckets); }

  static std::shared_ptr<nn::Network> build() {
    return nn::build_tiny_cnn(17, 1000);
  }

  /// The app for one op. Ops share the prepared network: weights are
  /// read-only for the client, and the server builds its own copy from
  /// the pre-sent files.
  static edge::AppBundle bundle(std::size_t kind, std::uint32_t variant,
                                std::shared_ptr<nn::Network> network) {
    edge::AppBundle app;
    app.name = network->name();
    app.network = std::move(network);
    app.source = app_source(
        app.name, kBuckets[kind].history +
                      kHistoryStep * static_cast<int>(variant));
    app.input_image = core::make_input_image(32, 2000 + variant);
    return app;
  }

  bool smoke_;
  std::shared_ptr<nn::Network> network_;
};

}  // namespace

std::unique_ptr<Workload> make_heap_session(bool smoke) {
  return std::make_unique<HeapSession>(smoke);
}

}  // namespace perfbench
