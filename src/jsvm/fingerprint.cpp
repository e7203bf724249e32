#include "src/jsvm/fingerprint.h"

#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/hash.h"

namespace offload::jsvm {
namespace {

/// Cycle-safe structural hasher. References hash by first-visit ordinal,
/// so two realms with isomorphic heaps produce equal hashes regardless of
/// addresses.
using DomIndexMap = std::unordered_map<const DomNode*, std::uint64_t>;

class Hasher {
  /// The values still to mix of an array. A range holds its place on the
  /// stack while its first value's subtree is mixed, so the stack grows
  /// with the heap's depth, not with its size.
  struct Values {
    const Value* next;
    const Value* end;
  };
  /// The name/value pairs still to mix of an object or environment: each
  /// mixes its name, then its value.
  struct Pairs {
    const std::pair<std::string, Value>* next;
    const std::pair<std::string, Value>* end;
  };
  /// A value range, a pair range, or a tag for mix_tag.
  using Step = std::variant<Values, Pairs, std::uint64_t>;

  static void push_pairs(const std::vector<std::pair<std::string, Value>>& v,
                         std::vector<Step>& stack) {
    if (!v.empty()) stack.emplace_back(Pairs{v.data(), v.data() + v.size()});
  }

 public:
  explicit Hasher(const DomIndexMap* dom_index = nullptr,
                  const Environment* global_env = nullptr)
      : dom_index_(dom_index), global_env_(global_env) {}

  std::uint64_t hash(const Value& value) {
    h_ = util::kFnvOffset;
    mix_value(value);
    return h_;
  }

  std::uint64_t value() const { return h_; }

  /// Mix `value` and, on first visit, the cells it reaches, in the order
  /// of a recursive depth-first walk. Pending steps wait on an explicit
  /// stack, so the call depth stays constant at any heap depth.
  void mix_value(const Value& value) {
    std::vector<Step> stack{Values{&value, &value + 1}};
    while (!stack.empty()) {
      const Step step = stack.back();
      stack.pop_back();
      if (const auto* values = std::get_if<Values>(&step)) {
        Values rest = *values;
        const Value& v = *rest.next;
        if (++rest.next != rest.end) stack.emplace_back(rest);
        mix_one(v, stack);
      } else if (const auto* pairs = std::get_if<Pairs>(&step)) {
        Pairs rest = *pairs;
        const auto& [name, v] = *rest.next;
        if (++rest.next != rest.end) stack.emplace_back(rest);
        mix_str(name);
        mix_one(v, stack);
      } else {
        mix_tag(std::get<std::uint64_t>(step));
      }
    }
  }

  /// Mix one value's own bytes now; push the values it reaches.
  void mix_one(const Value& value, std::vector<Step>& stack) {
    struct Visitor {
      Hasher& h;
      std::vector<Step>& stack;
      void operator()(const Undefined&) { h.mix_tag(1); }
      void operator()(const Null&) { h.mix_tag(2); }
      void operator()(bool b) {
        h.mix_tag(3);
        h.mix_u64(b ? 1 : 0);
      }
      void operator()(double d) {
        h.mix_tag(4);
        h.mix_u64(std::bit_cast<std::uint64_t>(d));
      }
      void operator()(const std::string& s) {
        h.mix_tag(5);
        h.mix_str(s);
      }
      void operator()(const ObjectPtr& o) {
        if (h.mix_ref(6, o.get())) return;
        push_pairs(o->properties, stack);
      }
      void operator()(const ArrayPtr& a) {
        if (h.mix_ref(7, a.get())) return;
        const auto& elements = a->elements;
        h.mix_u64(elements.size());
        if (!elements.empty()) {
          stack.emplace_back(
              Values{elements.data(), elements.data() + elements.size()});
        }
      }
      void operator()(const FunctionPtr& f) {
        if (h.mix_ref(8, f.get())) return;
        h.mix_str(std::string(f->source()));
        // Captured environment chain contributes content — but stop at the
        // global environment: globals are fingerprinted per-binding, and
        // folding them into every function hash would make all functions
        // "change" whenever any global does. Each environment's slots mix,
        // then tag 20, innermost first.
        std::vector<const Environment*> chain;
        for (const Environment* env = f->closure.get();
             env && env != h.global_env_; env = env->parent().get()) {
          chain.push_back(env);
        }
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          stack.emplace_back(std::uint64_t{20});
          push_pairs((*it)->slots(), stack);
        }
      }
      void operator()(const TypedArrayPtr& t) {
        if (h.mix_ref(9, t.get())) return;
        h.mix_u64(t->data.size());
        for (float f : t->data) {
          h.mix_u64(std::bit_cast<std::uint32_t>(f));
        }
      }
      void operator()(const NativeFnPtr& f) {
        h.mix_tag(10);
        h.mix_str(f->registry_name);
      }
      void operator()(const HostObjectPtr& ho) {
        h.mix_tag(11);
        h.mix_str(ho->restore_expression());
      }
      void operator()(const DomNodePtr& d) {
        // Attached DOM nodes hash by their position in the body tree
        // (their content is covered by the DOM fingerprint, keeping heap
        // hashes stable when only DOM text changes). Detached nodes hash
        // by shallow content.
        if (h.dom_index_) {
          if (auto it = h.dom_index_->find(d.get());
              it != h.dom_index_->end()) {
            h.mix_tag(12);
            h.mix_u64(it->second);
            return;
          }
        }
        if (h.mix_ref(13, d.get())) return;
        h.mix_str(d->tag);
        h.mix_str(d->id);
        h.mix_str(d->text);
      }
    };
    std::visit(Visitor{*this, stack}, value);
  }

  void mix_tag(std::uint64_t tag) { mix_u64(tag); }

  void mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= util::kFnvPrime;
    }
  }

  void mix_str(std::string_view s) {
    h_ = util::fnv1a(s, h_);
    mix_u64(s.size());
  }

  /// Mix a reference; returns true if already visited (don't recurse).
  bool mix_ref(std::uint64_t tag, const void* ptr) {
    mix_tag(tag);
    auto [it, fresh] = visited_.try_emplace(ptr, next_ordinal_);
    if (fresh) ++next_ordinal_;
    mix_u64(it->second);
    return !fresh;
  }

 private:
  const DomIndexMap* dom_index_;
  const Environment* global_env_;
  std::uint64_t h_ = util::kFnvOffset;
  std::unordered_map<const void*, std::uint64_t> visited_;
  std::uint64_t next_ordinal_ = 0;
};

void index_dom(const DomNodePtr& body, DomIndexMap& map) {
  walk_pre_order(body, [&](const DomNodePtr& node) {
    map.emplace(node.get(), map.size());
    return true;
  });
}

void walk_dom(const DomNodePtr& body, Hasher& structure,
              std::vector<std::uint64_t>& content) {
  walk_pre_order(body, [&](const DomNodePtr& node) {
    structure.mix_str(node->tag);
    structure.mix_str(node->id);
    structure.mix_u64(node->children.size());
    structure.mix_u64(node->listeners.size());
    for (const auto& [type, handler] : node->listeners) {
      structure.mix_str(type);
      structure.mix_value(handler);
    }
    std::uint64_t ch = util::kFnvOffset;
    ch = util::fnv1a(node->text, ch);
    for (const auto& [k, v] : node->attributes) {
      ch = util::fnv1a(k, ch);
      ch = util::fnv1a(v, ch);
    }
    if (node->canvas_data) {
      ch = util::fnv1a(
          std::span(reinterpret_cast<const std::uint8_t*>(
                        node->canvas_data->data.data()),
                    node->canvas_data->data.size() * sizeof(float)),
          ch);
    }
    content.push_back(ch);
    return true;
  });
}

}  // namespace

const std::uint64_t* RealmFingerprint::find(std::string_view name) const {
  for (const auto& [n, h] : globals) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::uint64_t hash_value(const Value& value) {
  Hasher h;
  return h.hash(value);
}

RealmFingerprint fingerprint_realm(Interpreter& interp) {
  RealmFingerprint fp;
  DomIndexMap dom_index;
  index_dom(interp.document().body(), dom_index);
  const Environment* global_env = interp.globals().get();
  for (const auto& [name, value] : interp.globals()->slots()) {
    if (interp.is_ambient_binding(name, value)) continue;
    Hasher h(&dom_index, global_env);
    fp.globals.emplace_back(name, h.hash(value));
  }
  Hasher structure(&dom_index, global_env);
  structure.mix_tag(99);
  walk_dom(interp.document().body(), structure, fp.dom_content);
  fp.dom_structure = structure.value();

  std::uint64_t v = util::kFnvOffset;
  for (const auto& [name, h] : fp.globals) {
    v = util::fnv1a(name, v);
    v ^= h;
    v *= util::kFnvPrime;
  }
  v ^= fp.dom_structure;
  v *= util::kFnvPrime;
  for (auto ch : fp.dom_content) {
    v ^= ch;
    v *= util::kFnvPrime;
  }
  fp.version = v;
  return fp;
}

}  // namespace offload::jsvm
