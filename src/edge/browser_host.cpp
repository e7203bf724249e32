#include "src/edge/browser_host.h"

#include <cstring>
#include <stdexcept>

namespace offload::edge {
namespace {

using jsvm::HostObject;
using jsvm::Interpreter;
using jsvm::JsError;
using jsvm::TypedArray;
using jsvm::TypedArrayPtr;
using jsvm::Value;

/// The object returned by loadModel(): wraps the instantiated network.
/// Snapshots serialize it as __loadModel("<app>") — the model itself never
/// rides inside the snapshot (the pre-sending optimization).
class ModelHost final : public HostObject {
 public:
  ModelHost(std::string app, std::shared_ptr<nn::Network> net,
            BrowserHost* host)
      : app_(std::move(app)), net_(std::move(net)), host_(host) {}

  std::string_view class_name() const override { return "Model"; }

  Value get_property(Interpreter& interp, std::string_view name) override {
    if (name == "name") return app_;
    if (name == "numLayers") return static_cast<double>(net_->size());
    if (name == "inputSize") {
      return static_cast<double>(net_->analyze().shapes.at(0).elements());
    }
    if (name == "inference" || name == "inference_front" ||
        name == "inference_rear") {
      return interp.native("Model." + std::string(name));
    }
    throw JsError("model has no property '" + std::string(name) + "'");
  }

  std::string restore_expression() const override {
    return "__loadModel(\"" + app_ + "\")";
  }

  const std::string& app() const { return app_; }
  const std::shared_ptr<nn::Network>& net() const { return net_; }
  BrowserHost* host() const { return host_; }

 private:
  std::string app_;
  std::shared_ptr<nn::Network> net_;
  BrowserHost* host_;
};

std::shared_ptr<ModelHost> model_from_this(const Value& this_value,
                                           const char* what) {
  if (const auto* host = std::get_if<jsvm::HostObjectPtr>(&this_value)) {
    if (auto model = std::dynamic_pointer_cast<ModelHost>(*host)) {
      return model;
    }
  }
  throw JsError(std::string(what) + ": receiver is not a model");
}

nn::Tensor tensor_from_typed_array(const Value& v, const nn::Shape& shape,
                                   const char* what) {
  const auto* ta = std::get_if<TypedArrayPtr>(&v);
  if (!ta) throw JsError(std::string(what) + ": expected Float32Array");
  if (static_cast<std::int64_t>((*ta)->data.size()) != shape.elements()) {
    throw JsError(std::string(what) + ": expected " +
                  std::to_string(shape.elements()) + " values, got " +
                  std::to_string((*ta)->data.size()));
  }
  return nn::Tensor(shape, (*ta)->data);
}

Value typed_array_from_tensor(const nn::Tensor& t) {
  auto ta = std::make_shared<TypedArray>();
  ta->data.assign(t.data().begin(), t.data().end());
  return ta;
}

}  // namespace

BrowserHost::BrowserHost(nn::DeviceProfile profile,
                         std::shared_ptr<ModelStore> store)
    : profile_(std::move(profile)), store_(std::move(store)) {
  if (!store_) throw std::invalid_argument("BrowserHost: null model store");
  reset_realm();
}

void BrowserHost::reset_realm() {
  interp_ = std::make_unique<jsvm::Interpreter>();
  install_bindings();
}

void BrowserHost::set_partition_cut(const std::string& app, std::size_t cut) {
  // Validate when the model is known here (servers may record a cut before
  // the model pre-send arrives; those are checked at instantiation).
  if (store_->can_instantiate(app)) {
    const std::size_t nodes = store_->instantiate(app)->size();
    if (cut >= nodes) throw InvalidCutError(app, cut, nodes);
  }
  cuts_[app] = cut;
}

std::size_t BrowserHost::partition_cut(const std::string& app) const {
  auto it = cuts_.find(app);
  return it == cuts_.end() ? SIZE_MAX : it->second;
}

void BrowserHost::add_image(const std::string& name, nn::Tensor image) {
  images_.insert_or_assign(name, std::move(image));
}

void BrowserHost::set_canvas_image(const std::string& element_id,
                                   const nn::Tensor& image) {
  jsvm::DomNodePtr node = interp_->document().get_element_by_id(element_id);
  if (!node || node->tag != "canvas") {
    throw std::runtime_error("set_canvas_image: no canvas with id " +
                             element_id);
  }
  auto ta = std::make_shared<TypedArray>();
  ta->data.assign(image.data().begin(), image.data().end());
  node->canvas_data = std::move(ta);
}

double BrowserHost::consume_compute_seconds() {
  double s = compute_seconds_;
  compute_seconds_ = 0.0;
  return s;
}

void BrowserHost::install_bindings() {
  Interpreter& interp = *interp_;

  auto load_model = interp.register_native(
      "__loadModel",
      [this](Interpreter&, const Value&, std::span<Value> args) -> Value {
        if (args.empty()) throw JsError("loadModel: missing app name");
        std::string app = jsvm::to_display_string(args[0]);
        std::shared_ptr<nn::Network> net;
        try {
          net = store_->instantiate(app);
        } catch (const std::runtime_error& e) {
          throw JsError(e.what());
        }
        return std::make_shared<ModelHost>(std::move(app), std::move(net),
                                           this);
      });
  interp.set_global("loadModel", load_model);
  interp.set_global("__loadModel", load_model);

  interp.set_global(
      "loadImage",
      interp.register_native(
          "loadImage",
          [this](Interpreter&, const Value&, std::span<Value> args) -> Value {
            if (args.empty()) throw JsError("loadImage: missing name");
            std::string name = jsvm::to_display_string(args[0]);
            auto it = images_.find(name);
            if (it == images_.end()) {
              throw JsError("loadImage: unknown image '" + name + "'");
            }
            return typed_array_from_tensor(it->second);
          }));

  interp.register_native(
      "Model.inference",
      [this](Interpreter&, const Value& this_value,
             std::span<Value> args) -> Value {
        auto model = model_from_this(this_value, "inference");
        const nn::Network& net = *model->net();
        nn::Tensor input = tensor_from_typed_array(
            args.empty() ? Value(jsvm::Undefined{}) : args[0],
            net.analyze().shapes.at(0), "inference");
        nn::Tensor scores = net.forward(input);
        charge_compute(profile_.network_time_s(net));
        return typed_array_from_tensor(scores);
      });

  interp.register_native(
      "Model.inference_front",
      [this](Interpreter&, const Value& this_value,
             std::span<Value> args) -> Value {
        auto model = model_from_this(this_value, "inference_front");
        const nn::Network& net = *model->net();
        std::size_t cut = partition_cut(model->app());
        if (cut == SIZE_MAX) {
          throw JsError("inference_front: no partition point configured for " +
                        model->app());
        }
        nn::Tensor input = tensor_from_typed_array(
            args.empty() ? Value(jsvm::Undefined{}) : args[0],
            net.analyze().shapes.at(0), "inference_front");
        nn::Tensor feature = net.forward_front(input, cut);
        charge_compute(profile_.network_time_s(net, 0, cut + 1));
        return typed_array_from_tensor(feature);
      });

  interp.register_native(
      "Model.inference_rear",
      [this](Interpreter&, const Value& this_value,
             std::span<Value> args) -> Value {
        auto model = model_from_this(this_value, "inference_rear");
        const nn::Network& net = *model->net();
        std::size_t cut = partition_cut(model->app());
        if (cut == SIZE_MAX) {
          throw JsError("inference_rear: no partition point configured for " +
                        model->app());
        }
        nn::Tensor feature = tensor_from_typed_array(
            args.empty() ? Value(jsvm::Undefined{}) : args[0],
            net.analyze().shapes.at(cut), "inference_rear");
        nn::Tensor scores = net.forward_rear(feature, cut);
        charge_compute(profile_.network_time_s(net, cut + 1, net.size()));
        return typed_array_from_tensor(scores);
      });
}

}  // namespace offload::edge
