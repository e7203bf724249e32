// Dense float32 tensor in CHW layout. This is the value type flowing
// between DNN layers and — serialized as a typed array — inside snapshots.
// A tensor holds one sample: a CHW image is {C, H, W}, a feature vector {N}.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/util/aligned.h"
#include "src/util/rng.h"

namespace offload::nn {

/// Tensor element storage: 64-byte aligned so SIMD kernels can issue full
/// cache-line loads from any tensor without peeling.
using AlignedFloats = std::vector<float, util::AlignedAllocator<float, 64>>;

/// Tensor extents, outermost first. A CHW image is {C, H, W}; a flat
/// feature vector is {N}.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const { return dims_.size(); }
  std::int64_t dim(std::size_t i) const { return dims_.at(i); }
  std::int64_t operator[](std::size_t i) const { return dims_.at(i); }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Total element count (1 for rank-0).
  std::int64_t elements() const;
  std::string str() const;  ///< e.g. "64x56x56"

  bool operator==(const Shape&) const = default;

 private:
  std::vector<std::int64_t> dims_;
};

/// Owning float32 tensor. Copyable (deep), movable (cheap).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, AlignedFloats data);
  /// Compatibility ctors for callers holding a plain vector or a brace
  /// list; both copy into aligned storage.
  Tensor(Shape shape, const std::vector<float>& data);
  Tensor(Shape shape, std::initializer_list<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  /// I.i.d. uniform values in [lo, hi) from a caller-owned RNG.
  static Tensor random_uniform(Shape shape, util::Pcg32& rng, float lo = -1.0f,
                               float hi = 1.0f);

  const Shape& shape() const { return shape_; }
  std::int64_t elements() const { return shape_.elements(); }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(elements()) * sizeof(float);
  }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  /// CHW accessor for rank-3 tensors (no bounds check in release paths;
  /// used by layer kernels).
  float& at(std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[static_cast<std::size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }
  float at(std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data_[static_cast<std::size_t>((c * shape_[1] + h) * shape_[2] + w)];
  }

  /// Same elements, new shape (element counts must match). The rvalue
  /// overload moves the storage instead of copying it.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  /// Index of the maximum element (argmax over the flat data).
  std::int64_t argmax() const;

  /// Max |a-b| over elements; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);

 private:
  Shape shape_;
  AlignedFloats data_;
};

}  // namespace offload::nn
