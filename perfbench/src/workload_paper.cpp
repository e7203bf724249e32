// paper_offload: the paper's own pipeline. One op is one
// core::run_scenario call: GoogLeNet / AgeNet / GenderNet, each offloaded
// before the model ACK, after it, and partially at the first pooling
// layer. The op's variant picks the input image.
#include <cctype>
#include <iterator>

#include "src/core/experiment.h"
#include "src/replay.h"
#include "src/workload.h"

namespace perfbench {
namespace {

using namespace offload;

struct Arm {
  const char* name;
  core::Scenario scenario;
};
constexpr Arm kArms[] = {
    {"before_ack", core::Scenario::kOffloadBeforeAck},
    {"after_ack", core::Scenario::kOffloadAfterAck},
    {"partial", core::Scenario::kOffloadPartial},
};
constexpr std::size_t kArmCount = std::size(kArms);

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Count the program's own obs spans for one op: run_scenario keeps its
/// runtime private, so this rebuilds the same configuration around an
/// external sink. Traced runs only, once per kind, untimed.
std::size_t spans_of(const nn::BenchmarkModel& model, core::Scenario scenario,
                     std::uint64_t image_seed) {
  const bool partial = scenario == core::Scenario::kOffloadPartial;
  edge::AppBundle bundle = core::make_benchmark_app(model, partial, image_seed);
  obs::Obs sink;
  core::RuntimeConfig config;
  config.obs = &sink;
  config.client.offload_event = partial ? "front_complete" : "click";
  config.click_at = sim::SimTime::seconds(0.05);
  std::size_t cut = 0;
  if (partial) {
    cut = core::first_pool_cut(*bundle.network);
    config.client.presend_rear_only = true;
    config.client.partition_cut = cut;
  }
  if (scenario != core::Scenario::kOffloadBeforeAck) {
    config.click_at =
        core::after_ack_click_time(*bundle.network, partial, cut, 30e6);
  }
  core::OffloadingRuntime runtime(config, std::move(bundle));
  runtime.run();
  return sink.trace.size();
}

class PaperOffload : public Workload {
 public:
  explicit PaperOffload(bool smoke) : models_(nn::benchmark_models()) {
    // Smoke: GenderNet only (the cheapest full-size model), all arms.
    if (smoke) models_.erase(models_.begin(), models_.end() - 1);
    spans_.assign(models_.size() * kArmCount, 0);
  }

  std::vector<std::string> kinds() const override {
    std::vector<std::string> out;
    for (const nn::BenchmarkModel& m : models_) {
      for (const Arm& arm : kArms) {
        out.push_back(lower(m.app_name) + "/" + arm.name);
      }
    }
    return out;
  }

  std::string run(std::size_t kind, std::uint32_t variant, Tracer& t,
                  std::vector<Calibration>& calibration) override {
    const nn::BenchmarkModel& model = models_[kind / kArmCount];
    const Arm& arm = kArms[kind % kArmCount];
    core::ScenarioOptions options;
    options.image_seed = 1000 + variant;

    core::RunResult r = t.span(
        "core.op",
        [&] { return core::run_scenario(model, arm.scenario, options); },
        /*covered=*/false);

    if (t.on()) {
      const bool partial = arm.scenario == core::Scenario::kOffloadPartial;
      Calibration calib;
      calib.group = lower(model.app_name);
      edge::AppBundle app = t.span("nn.build", [&] {
        return core::make_benchmark_app(model, partial, options.image_seed);
      });
      const std::size_t cut =
          partial ? core::first_pool_cut(*app.network) : SIZE_MAX;
      replay_offload(app, cut, partial ? "front_complete" : "click", t, calib);
      account(r, calib, t);
      calibration.push_back(calib);
      std::size_t& spans = spans_[kind];
      if (spans == 0) spans = spans_of(model, arm.scenario, options.image_seed);
      t.add("obs.spans", static_cast<double>(spans));
    }
    return describe(r);
  }

 private:
  std::vector<nn::BenchmarkModel> models_;
  std::vector<std::size_t> spans_;  ///< obs spans per op, by kind
};

}  // namespace

std::unique_ptr<Workload> make_paper_offload(bool smoke) {
  return std::make_unique<PaperOffload>(smoke);
}

}  // namespace perfbench
