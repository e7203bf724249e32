// Lexical environments. A chain of these is what a closure captures; the
// snapshot writer walks reachable environments to reconstruct closures on
// the restoring side (the paper's reference [11], "closure reconstruction").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/jsvm/value.h"

namespace offload::jsvm {

class Environment final : public HeapCell {
 public:
  explicit Environment(EnvPtr parent = nullptr) : parent_(std::move(parent)) {}
  /// As ~Object (defined with it in value.cpp): a chain of closures, each
  /// holding the next in a slot, frees in a loop.
  ~Environment();

  const EnvPtr& parent() const { return parent_; }

  /// Slots in declaration order (snapshot determinism).
  const std::vector<std::pair<std::string, Value>>& slots() const {
    return slots_;
  }

  /// `var` semantics: (re)declare in *this* environment.
  void declare(std::string_view name, Value value);

  /// Look up through the chain; nullptr if unbound.
  Value* find(std::string_view name);

  /// Look up only in this environment.
  Value* find_local(std::string_view name);

  /// Assign through the chain. Returns false if the name is unbound
  /// anywhere (caller decides whether that is an error or an implicit
  /// global, JS-style).
  bool assign(std::string_view name, const Value& value);

 private:
  /// Up to this many slots, find_local scans `slots_`: most function-call
  /// scopes hold a few names, where a scan beats hashing. Past it, lookups
  /// go through `index_`, so an environment with N slots (a snapshot's
  /// restore scope declares one per heap object) costs O(N), not O(N^2).
  static constexpr std::size_t kLinearScanMax = 8;

  void index_slot(std::size_t slot);
  void drain(HeapSink& sink) override;

  EnvPtr parent_;
  std::vector<std::pair<std::string, Value>> slots_;
  /// Open-addressing hash table over `slots_` names, probed linearly: each
  /// entry is a slot position plus one, 0 when empty. Its size is a power
  /// of two at least twice the slot count. Empty until `slots_` outgrows
  /// kLinearScanMax. One flat allocation, and no copy of the names.
  std::vector<std::uint32_t> index_;
};

}  // namespace offload::jsvm
