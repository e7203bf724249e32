#include "src/jsvm/env.h"

#include <bit>
#include <functional>

namespace offload::jsvm {

namespace {

std::size_t hash_name(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

void Environment::declare(std::string_view name, Value value) {
  if (Value* v = find_local(name)) {
    *v = std::move(value);
    return;
  }
  slots_.emplace_back(std::string(name), std::move(value));
  if (slots_.size() <= kLinearScanMax) return;
  if (index_.size() >= 2 * slots_.size()) {
    index_slot(slots_.size() - 1);
    return;
  }
  // Rebuild at most a quarter full: the table at least doubles each time,
  // so declare stays amortized O(1).
  index_.assign(std::bit_ceil(4 * slots_.size()), 0);
  for (std::size_t i = 0; i < slots_.size(); ++i) index_slot(i);
}

void Environment::index_slot(std::size_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash_name(slots_[slot].first) & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = static_cast<std::uint32_t>(slot + 1);
}

Value* Environment::find_local(std::string_view name) {
  if (index_.empty()) {
    for (auto& [k, v] : slots_) {
      if (k == name) return &v;
    }
    return nullptr;
  }
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash_name(name) & mask; index_[i] != 0;
       i = (i + 1) & mask) {
    auto& [k, v] = slots_[index_[i] - 1];
    if (k == name) return &v;
  }
  return nullptr;
}

Value* Environment::find(std::string_view name) {
  for (Environment* env = this; env; env = env->parent_.get()) {
    if (Value* v = env->find_local(name)) return v;
  }
  return nullptr;
}

bool Environment::assign(std::string_view name, const Value& value) {
  if (Value* v = find(name)) {
    *v = value;
    return true;
  }
  return false;
}

}  // namespace offload::jsvm
