// DNN as a DAG of named layers. Nodes are appended in topological order
// (inputs must already exist), which keeps forward execution a simple left-
// to-right sweep — the same "series of layer execution" (forward execution)
// the paper describes in Section II.A.
//
// Partial inference (Section III.B.2) is expressed through *cut points*:
// node indices where the entire downstream graph depends only on that
// node's output, so transferring one feature tensor suffices.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/nn/layer.h"

namespace offload::nn {

class Network {
 public:
  explicit Network(std::string name) : name_(std::move(name)) {}

  /// Append a node. `inputs` are names of earlier nodes; defaults to the
  /// previous node (chain topology). Returns the node index.
  std::size_t add(LayerPtr layer, std::vector<std::string> inputs = {});

  const std::string& name() const { return name_; }
  std::size_t size() const { return nodes_.size(); }
  const Layer& layer(std::size_t i) const { return *nodes_.at(i).layer; }
  Layer& layer(std::size_t i) { return *nodes_.at(i).layer; }
  const std::vector<std::size_t>& inputs_of(std::size_t i) const {
    return nodes_.at(i).inputs;
  }
  /// Throws std::out_of_range for unknown names.
  std::size_t index_of(std::string_view layer_name) const;
  bool has_layer(std::string_view layer_name) const;

  /// Deterministically initialize all parameters from `seed`.
  void init_params(std::uint64_t seed);

  std::uint64_t param_count() const;
  std::uint64_t param_bytes() const { return param_count() * sizeof(float); }

  /// Static per-node analysis (no tensor traffic): output shapes, FLOPs,
  /// output byte sizes, and the last node reading each output (the node
  /// itself when none does), after which a forward frees that output.
  /// Cached after the first call.
  struct Analysis {
    std::vector<Shape> shapes;
    std::vector<std::uint64_t> flops;
    std::vector<std::uint64_t> output_bytes;
    std::vector<std::size_t> last_reader;
    std::uint64_t total_flops = 0;
  };
  const Analysis& analyze() const;

  /// Full forward pass. The input feeds node 0 (which must be kInput).
  Tensor forward(const Tensor& input) const;

  /// Run nodes [0, cut] and return node `cut`'s output (the feature data).
  Tensor forward_front(const Tensor& input, std::size_t cut) const;
  /// Run nodes (cut, end) from a feature tensor produced at `cut`.
  Tensor forward_rear(const Tensor& feature, std::size_t cut) const;

  /// Node indices that are valid offloading points: every edge into the
  /// downstream subgraph originates at that node. Always contains node 0
  /// (the input = full offloading) and the last node.
  std::vector<std::size_t> cut_points() const;

 private:
  struct Node {
    LayerPtr layer;
    std::vector<std::size_t> inputs;
  };

  /// Feed the input to node 0 and run nodes [1, end).
  Tensor run_front(const Tensor& input, std::size_t end) const;
  /// Execute nodes [begin, end); `values` must hold outputs of all nodes
  /// < begin that the range reads. Each value is freed once its last
  /// reader has run. Returns output of node end-1.
  Tensor run_range(std::size_t begin, std::size_t end,
                   std::vector<Tensor>& values) const;

  std::string name_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, std::size_t> by_name_;
  mutable Analysis analysis_;
  mutable bool analyzed_ = false;
};

}  // namespace offload::nn
