#include "src/nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace offload::nn {

std::int64_t Shape::elements() const {
  std::int64_t n = 1;
  for (auto d : dims_) {
    if (d < 0) throw std::invalid_argument("Shape: negative dimension");
    n *= d;
  }
  return n;
}

std::string Shape::str() const {
  std::string out;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out += 'x';
    out += std::to_string(dims_[i]);
  }
  return out.empty() ? "scalar" : out;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_.elements()), 0.0f) {}

Tensor::Tensor(Shape shape, AlignedFloats data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_.elements()) {
    throw std::invalid_argument("Tensor: data size does not match shape " +
                                shape_.str());
  }
}

Tensor::Tensor(Shape shape, const std::vector<float>& data)
    : Tensor(std::move(shape), AlignedFloats(data.begin(), data.end())) {}

Tensor::Tensor(Shape shape, std::initializer_list<float> data)
    : Tensor(std::move(shape), AlignedFloats(data.begin(), data.end())) {}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

Tensor Tensor::random_uniform(Shape shape, util::Pcg32& rng, float lo,
                              float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  if (new_shape.elements() != elements()) {
    throw std::invalid_argument("Tensor::reshaped: element count mismatch");
  }
  return Tensor(std::move(new_shape), std::move(data_));
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax on empty tensor");
  return std::max_element(data_.begin(), data_.end()) - data_.begin();
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  float m = 0.0f;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

}  // namespace offload::nn
