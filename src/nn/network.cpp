#include "src/nn/network.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"

namespace offload::nn {

std::size_t Network::add(LayerPtr layer, std::vector<std::string> inputs) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  if (by_name_.count(layer->name())) {
    throw std::invalid_argument("Network::add: duplicate layer name " +
                                layer->name());
  }
  Node node;
  if (nodes_.empty()) {
    if (layer->kind() != LayerKind::kInput) {
      throw std::invalid_argument("Network::add: first node must be an input");
    }
    if (!inputs.empty()) {
      throw std::invalid_argument("Network::add: input layer takes no inputs");
    }
  } else if (inputs.empty()) {
    node.inputs.push_back(nodes_.size() - 1);  // default: chain
  } else {
    for (const auto& in : inputs) {
      node.inputs.push_back(index_of(in));
    }
  }
  by_name_.emplace(layer->name(), nodes_.size());
  node.layer = std::move(layer);
  nodes_.push_back(std::move(node));
  analyzed_ = false;
  // Validate shapes eagerly so graph construction errors fail fast; roll
  // back the node on error.
  try {
    analyze();
  } catch (...) {
    by_name_.erase(nodes_.back().layer->name());
    nodes_.pop_back();
    analyzed_ = false;
    throw;
  }
  return nodes_.size() - 1;
}

std::size_t Network::index_of(std::string_view layer_name) const {
  auto it = by_name_.find(std::string(layer_name));
  if (it == by_name_.end()) {
    throw std::out_of_range("Network: no layer named " +
                            std::string(layer_name));
  }
  return it->second;
}

bool Network::has_layer(std::string_view layer_name) const {
  return by_name_.count(std::string(layer_name)) > 0;
}

void Network::init_params(std::uint64_t seed) {
  // One stream of uniforms over every layer's param_spans() in node order.
  // Fixed-size blocks of it, which cross layer boundaries, are filled on
  // the pool; each chunk of blocks jumps the generator to its first value,
  // so the weights are the serial stream's at any pool size.
  std::vector<ParamSpan> spans;
  for (auto& node : nodes_) {
    for (ParamSpan& span : node.layer->param_spans()) spans.push_back(span);
  }
  std::uint64_t total = 0;
  for (const ParamSpan& span : spans) total += span.values.size();
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
  const util::Pcg32 origin(seed, 0x6d6f64656cULL);
  const auto blocks = static_cast<std::int64_t>((total + kBlock - 1) / kBlock);
  util::parallel_for(0, blocks, 1, [&](std::int64_t lo, std::int64_t hi) {
    const std::uint64_t begin = static_cast<std::uint64_t>(lo) * kBlock;
    util::Pcg32 rng = origin;
    rng.advance(2 * begin);  // two u32 per uniform
    fill_uniform(spans, begin,
                 std::min(total, static_cast<std::uint64_t>(hi) * kBlock), rng);
  });
  // Each conv packs its weights once.
  for (auto& node : nodes_) node.layer->params_changed();
}

std::uint64_t Network::param_count() const {
  std::uint64_t n = 0;
  for (const auto& node : nodes_) n += node.layer->param_count();
  return n;
}

const Network::Analysis& Network::analyze() const {
  if (analyzed_) return analysis_;
  Analysis a;
  a.shapes.reserve(nodes_.size());
  a.last_reader.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::vector<Shape> in_shapes;
    in_shapes.reserve(node.inputs.size());
    a.last_reader[i] = i;
    for (auto idx : node.inputs) {
      in_shapes.push_back(a.shapes.at(idx));
      a.last_reader[idx] = i;
    }
    Shape out = node.layer->output_shape(in_shapes);
    std::uint64_t fl = node.layer->flops(in_shapes);
    a.shapes.push_back(out);
    a.flops.push_back(fl);
    a.output_bytes.push_back(static_cast<std::uint64_t>(out.elements()) *
                             sizeof(float));
    a.total_flops += fl;
  }
  analysis_ = std::move(a);
  analyzed_ = true;
  return analysis_;
}

Tensor Network::run_range(std::size_t begin, std::size_t end,
                          std::vector<Tensor>& values) const {
  // Ambient metrics sink (installed by ScopedMetrics around the measured
  // run_events calls). Read once on the calling thread — never inside the
  // kernels' parallel regions.
  obs::MetricsRegistry* metrics = obs::tls_metrics();
  const std::vector<std::size_t>& last_reader = analyze().last_reader;
  for (std::size_t i = begin; i < end; ++i) {
    const Node& node = nodes_[i];
    std::vector<const Tensor*> ins;
    ins.reserve(node.inputs.size());
    for (auto idx : node.inputs) {
      if (values[idx].elements() == 0) {
        throw std::logic_error("Network: node " + node.layer->name() +
                               " reads unavailable value");
      }
      ins.push_back(&values[idx]);
    }
    values[i] = node.layer->forward(ins);
    if (metrics) {
      metrics->add("nn.layers_run");
      metrics->add("nn.flops", analyze().flops[i]);
      metrics->add("nn.output_bytes", values[i].bytes());
    }
    for (auto idx : node.inputs) {
      if (last_reader[idx] == i) values[idx] = Tensor();
    }
  }
  if (metrics) metrics->add("nn.forward_ranges");
  return std::move(values[end - 1]);
}

Tensor Network::run_front(const Tensor& input, std::size_t end) const {
  std::vector<Tensor> values(nodes_.size());
  const Tensor* in[] = {&input};
  values[0] = nodes_[0].layer->forward(in);
  if (end == 1) return std::move(values[0]);
  return run_range(1, end, values);
}

Tensor Network::forward(const Tensor& input) const {
  if (nodes_.empty()) throw std::logic_error("Network::forward: empty graph");
  return run_front(input, nodes_.size());
}

Tensor Network::forward_front(const Tensor& input, std::size_t cut) const {
  if (cut >= nodes_.size()) {
    throw std::out_of_range("forward_front: cut out of range");
  }
  return run_front(input, cut + 1);
}

Tensor Network::forward_rear(const Tensor& feature, std::size_t cut) const {
  if (cut + 1 >= nodes_.size()) {
    throw std::out_of_range("forward_rear: nothing after cut");
  }
  if (feature.shape() != analyze().shapes[cut]) {
    throw std::invalid_argument("forward_rear: feature shape " +
                                feature.shape().str() + " != expected " +
                                analyze().shapes[cut].str());
  }
  std::vector<Tensor> values(nodes_.size());
  values[cut] = feature;
  return run_range(cut + 1, nodes_.size(), values);
}

std::vector<std::size_t> Network::cut_points() const {
  std::vector<std::size_t> points;
  if (nodes_.empty()) return points;
  // lowest_input[v] = min over inputs; a cut after node i is valid iff no
  // node v > i has an input u < i. Track the running minimum as we scan
  // backwards.
  const std::size_t n = nodes_.size();
  std::vector<std::size_t> min_input_after(n + 1, n);
  for (std::size_t v = n; v-- > 1;) {
    std::size_t m = min_input_after[v + 1];
    for (auto u : nodes_[v].inputs) m = std::min(m, u);
    min_input_after[v] = m;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Edges from nodes > i must originate at >= i (i.e. at node i itself).
    if (min_input_after[i + 1] >= i) points.push_back(i);
  }
  points.push_back(n - 1);  // "cut" after the last node = run fully local
  return points;
}

}  // namespace offload::nn
