#include "src/nn/model_io.h"

#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>

#include "src/nn/activation.h"
#include "src/nn/concat.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/util/strings.h"

namespace offload::nn {
namespace {

constexpr std::string_view kWeightsMagic = "OFWT";
constexpr std::uint32_t kWeightsVersion = 1;

std::string inputs_str(const Network& net, std::size_t i) {
  const auto& ins = net.inputs_of(i);
  std::vector<std::string> names;
  names.reserve(ins.size());
  for (auto idx : ins) names.push_back(net.layer(idx).name());
  return util::join(names, ",");
}

using KvMap = std::map<std::string, std::string>;

KvMap parse_kv(const std::vector<std::string>& tokens, std::size_t from) {
  KvMap kv;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw util::DecodeError("model description: expected key=value, got '" +
                              tokens[i] + "'");
    }
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

/// Parses the whole token as one number; anything else (empty, trailing
/// characters, out of range) is a DecodeError, never a std::logic_error.
template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw util::DecodeError("model description: bad number for '" + what +
                            "': '" + text + "'");
  }
  return value;
}

const std::string& kv_value(const KvMap& kv, const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end()) {
    throw util::DecodeError("model description: missing key '" + key + "'");
  }
  return it->second;
}

std::int64_t kv_int(const KvMap& kv, const std::string& key) {
  return parse_number<std::int64_t>(kv_value(kv, key), key);
}

double kv_double(const KvMap& kv, const std::string& key) {
  return parse_number<double>(kv_value(kv, key), key);
}

Shape parse_shape(const std::string& text) {
  std::vector<std::int64_t> dims;
  for (const auto& part : util::split(text, 'x')) {
    dims.push_back(parse_number<std::int64_t>(part, "shape"));
  }
  return Shape(std::move(dims));
}

LayerPtr make_layer(const std::string& kind, const std::string& name,
                    const KvMap& kv) {
  if (kind == "input") {
    auto it = kv.find("shape");
    if (it == kv.end()) throw util::DecodeError("input layer: missing shape");
    const double scale = kv.count("scale") ? kv_double(kv, "scale") : 1.0;
    return std::make_unique<InputLayer>(name, parse_shape(it->second), scale);
  }
  if (kind == "conv") {
    // "g" (channel groups) is optional so pre-group descriptions parse
    // unchanged.
    const std::int64_t groups = kv.count("g") ? kv_int(kv, "g") : 1;
    return std::make_unique<ConvLayer>(
        name, ConvConfig{.in_channels = kv_int(kv, "in"),
                         .out_channels = kv_int(kv, "out"),
                         .kernel = kv_int(kv, "k"),
                         .stride = kv_int(kv, "s"),
                         .pad = kv_int(kv, "p"),
                         .groups = groups});
  }
  if (kind == "maxpool" || kind == "avgpool") {
    return std::make_unique<PoolLayer>(
        name,
        PoolConfig{.kernel = kv_int(kv, "k"),
                   .stride = kv_int(kv, "s"),
                   .pad = kv_int(kv, "p")},
        kind == "avgpool");
  }
  if (kind == "fc") {
    return std::make_unique<FullyConnectedLayer>(name, kv_int(kv, "in"),
                                                 kv_int(kv, "out"));
  }
  if (kind == "relu") return std::make_unique<ReluLayer>(name);
  if (kind == "softmax") return std::make_unique<SoftmaxLayer>(name);
  if (kind == "concat") return std::make_unique<ConcatLayer>(name);
  if (kind == "dropout") {
    return std::make_unique<DropoutLayer>(name, kv_double(kv, "rate"));
  }
  if (kind == "lrn") {
    return std::make_unique<LrnLayer>(name,
                                      LrnConfig{.local_size = kv_int(kv, "n"),
                                                .alpha = kv_double(kv, "alpha"),
                                                .beta = kv_double(kv, "beta"),
                                                .k = kv_double(kv, "kk")});
  }
  throw util::DecodeError("model description: unknown layer kind '" + kind +
                          "'");
}

}  // namespace

std::string save_description(const Network& net) {
  std::ostringstream out;
  out << "model " << net.name() << "\n";
  for (std::size_t i = 0; i < net.size(); ++i) {
    const Layer& layer = net.layer(i);
    out << "layer " << layer.name() << " " << layer_kind_name(layer.kind());
    std::string cfg = layer.config_str();
    if (!cfg.empty()) out << " " << cfg;
    if (i > 0) out << " inputs=" << inputs_str(net, i);
    out << "\n";
  }
  return out.str();
}

std::unique_ptr<Network> parse_description(const std::string& text) {
  std::unique_ptr<Network> net;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto tokens = util::split_ws(trimmed);
    if (tokens[0] == "model") {
      if (tokens.size() != 2) {
        throw util::DecodeError("line " + std::to_string(line_no) +
                                ": bad model header");
      }
      if (net) throw util::DecodeError("duplicate model header");
      net = std::make_unique<Network>(tokens[1]);
      continue;
    }
    if (tokens[0] != "layer" || tokens.size() < 3) {
      throw util::DecodeError("line " + std::to_string(line_no) +
                              ": expected 'layer <name> <kind> ...'");
    }
    if (!net) throw util::DecodeError("layer before model header");
    const std::string& name = tokens[1];
    const std::string& kind = tokens[2];
    KvMap kv = parse_kv(tokens, 3);
    std::vector<std::string> inputs;
    if (auto it = kv.find("inputs"); it != kv.end()) {
      inputs = util::split(it->second, ',');
      kv.erase(it);
    }
    // Layer constructors and Network::add reject bad configs and graphs
    // with std::logic_error subclasses; from the wire those are decode
    // errors like any other.
    try {
      net->add(make_layer(kind, name, kv), inputs);
    } catch (const std::logic_error& e) {
      throw util::DecodeError("line " + std::to_string(line_no) + ": " +
                              e.what());
    }
  }
  if (!net) throw util::DecodeError("empty model description");
  return net;
}

std::uint64_t weights_size(const Network& net, std::size_t begin,
                           std::size_t end) {
  end = std::min(end, net.size());
  // Magic, version, layer count.
  std::uint64_t n = kWeightsMagic.size() + 4 + 4;
  for (std::size_t i = begin; i < end; ++i) {
    const Layer& layer = net.layer(i);
    const std::uint64_t params = layer.param_count();
    if (params == 0) continue;
    // Length-prefixed name, parameter count, fp32 parameters.
    n += util::varint_size(layer.name().size()) + layer.name().size() + 8 +
         params * sizeof(float);
  }
  return n;
}

util::Bytes save_weights(const Network& net, std::size_t begin,
                         std::size_t end) {
  end = std::min(end, net.size());
  util::BinaryWriter w;
  w.reserve(weights_size(net, begin, end));
  w.raw(kWeightsMagic);
  w.u32(kWeightsVersion);
  // Count parameterized layers in range.
  std::uint32_t count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (net.layer(i).param_count() > 0) ++count;
  }
  w.u32(count);
  for (std::size_t i = begin; i < end; ++i) {
    const Layer& layer = net.layer(i);
    const std::uint64_t params = layer.param_count();
    if (params == 0) continue;
    w.str(layer.name());
    w.u64(params);
    for (std::span<const float> span : layer.param_spans()) w.f32s(span);
  }
  return std::move(w).take();
}

void load_weights(Network& net, std::span<const std::uint8_t> blob,
                  std::size_t begin, std::size_t end) {
  end = std::min(end, net.size());
  util::BinaryReader r(blob);
  auto magic = r.raw(4);
  if (util::to_string(magic) != kWeightsMagic) {
    throw util::DecodeError("weights: bad magic");
  }
  if (r.u32() != kWeightsVersion) {
    throw util::DecodeError("weights: unsupported version");
  }
  std::uint32_t count = r.u32();
  std::vector<bool> loaded(net.size(), false);
  for (std::uint32_t n = 0; n < count; ++n) {
    std::string name = r.str();
    std::uint64_t params = r.u64();
    if (!net.has_layer(name)) {
      throw util::DecodeError("weights: unknown layer " + name);
    }
    std::size_t idx = net.index_of(name);
    if (idx < begin || idx >= end) {
      throw util::DecodeError("weights: layer " + name + " out of range");
    }
    if (loaded[idx]) {
      throw util::DecodeError("weights: layer " + name + " listed twice");
    }
    loaded[idx] = true;
    Layer& layer = net.layer(idx);
    if (layer.param_count() != params) {
      throw util::DecodeError("weights: parameter count mismatch for " + name);
    }
    for (const ParamSpan& span : layer.param_spans()) r.f32s(span.values);
    layer.params_changed();
  }
  if (!r.done()) {
    throw util::DecodeError("weights: trailing bytes after the last layer");
  }
}

std::vector<ModelFile> model_files(const Network& net) {
  std::vector<ModelFile> files;
  std::string desc = save_description(net);
  files.push_back(
      {net.name() + ".desc", util::Bytes(desc.begin(), desc.end())});
  files.push_back({net.name() + ".weights", save_weights(net)});
  return files;
}

std::vector<ModelFile> model_files_rear_only(const Network& net,
                                             std::size_t cut) {
  std::vector<ModelFile> files;
  std::string desc = save_description(net);
  files.push_back(
      {net.name() + ".desc", util::Bytes(desc.begin(), desc.end())});
  files.push_back(
      {net.name() + ".rear.weights", save_weights(net, cut + 1, net.size())});
  return files;
}

std::uint64_t total_size(const std::vector<ModelFile>& files) {
  std::uint64_t n = 0;
  for (const auto& f : files) n += f.size();
  return n;
}

}  // namespace offload::nn
