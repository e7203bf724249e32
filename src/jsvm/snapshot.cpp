#include "src/jsvm/snapshot.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "src/util/base64.h"

namespace offload::jsvm {
namespace {

/// Attached DOM nodes by depth-first position from body: the numbering
/// that __domByIndex resolves on the restoring side.
using DomIndex = std::unordered_map<const DomNode*, std::size_t>;

/// Dense ids for one kind of heap cell, in first-visit order.
template <typename T>
struct Ids {
  std::unordered_map<const T*, std::size_t> id;
  std::vector<std::shared_ptr<T>> list;

  /// Number `p`; false if it already has an id.
  bool add(const std::shared_ptr<T>& p) {
    if (!id.try_emplace(p.get(), list.size()).second) return false;
    list.push_back(p);
    return true;
  }

  bool overlaps(const Ids& other) const {
    const Ids& small = list.size() < other.list.size() ? *this : other;
    const Ids& big = &small == this ? other : *this;
    for (const auto& p : small.list) {
      if (big.id.count(p.get())) return true;
    }
    return false;
  }
};

/// The heap reachable from a set of roots — objects, arrays, typed arrays,
/// functions, environments and DOM nodes — each numbered in first-visit
/// order. The walk stops at the global environment and, when `attached` is
/// given, at attached DOM nodes, which the restoring realm already holds.
///
/// The numbering is that of a recursive depth-first walk in which each
/// step below runs to its end before the next one starts. An explicit
/// stack of pending steps keeps the call depth constant at any heap depth,
/// so a hostile 10^5-deep object, array or closure chain cannot overflow
/// it. The heap must not change during a walk.
struct Heap {
  Heap(const Interpreter& interp, const DomIndex* attached)
      : global_env(interp.globals().get()), attached(attached) {}

  /// A value: an object's property values, an array's elements and a
  /// function's closure environment, after the cell itself.
  void add(const Value& value) { walk(Range<Value>{&value, &value + 1}); }

  /// A DOM node's subtree in pre-order, each node followed by its canvas
  /// and listeners. A node already numbered or attached skips its subtree.
  void add_dom(const DomNodePtr& root) {
    walk(Range<DomNodePtr>{&root, &root + 1});
  }

  bool shares_with(const Heap& other) const {
    return objects.overlaps(other.objects) || arrays.overlaps(other.arrays) ||
           typed_arrays.overlaps(other.typed_arrays) ||
           functions.overlaps(other.functions) ||
           environments.overlaps(other.environments) ||
           dom_nodes.overlaps(other.dom_nodes);
  }

  const Environment* global_env;
  const DomIndex* attached;
  Ids<Object> objects;
  Ids<ArrayObj> arrays;
  Ids<TypedArray> typed_arrays;
  Ids<FunctionObj> functions;
  Ids<Environment> environments;
  Ids<DomNode> dom_nodes;

 private:
  /// The not yet walked part of a contiguous run of values, property or
  /// slot pairs, or DOM nodes. A range holds its place on the stack while
  /// its first item's subtree is walked, so the stack grows with the heap's
  /// depth, not with its size.
  template <typename T>
  struct Range {
    const T* next;
    const T* end;
  };
  using Pair = std::pair<std::string, Value>;
  /// An environment not yet numbered: its parents first, then NumberEnv.
  struct EnterEnv {
    const EnvPtr* env;
  };
  /// An environment whose parents are done: number it, then its slots.
  struct NumberEnv {
    const EnvPtr* env;
  };
  using Step = std::variant<Range<Value>, Range<Pair>, Range<DomNodePtr>,
                            EnterEnv, NumberEnv>;

  void walk(Step first) {
    std::vector<Step> stack{first};
    while (!stack.empty()) {
      const Step step = stack.back();
      stack.pop_back();
      std::visit([&](auto s) { run(s, stack); }, step);
    }
  }

  template <typename T>
  static void push(const std::vector<T>& items, std::vector<Step>& stack) {
    if (!items.empty()) {
      stack.emplace_back(Range<T>{items.data(), items.data() + items.size()});
    }
  }

  /// Walk a range's first item; the rest waits below its subtree.
  template <typename T>
  void run(Range<T> range, std::vector<Step>& stack) {
    const T& item = *range.next;
    if (++range.next != range.end) stack.emplace_back(range);
    if constexpr (std::is_same_v<T, Value>) {
      visit(item, stack);
    } else if constexpr (std::is_same_v<T, Pair>) {
      visit(item.second, stack);
    } else {
      visit_dom(item, stack);
    }
  }

  void visit(const Value& value, std::vector<Step>& stack) {
    if (const auto* obj = std::get_if<ObjectPtr>(&value)) {
      if (objects.add(*obj)) push((*obj)->properties, stack);
    } else if (const auto* arr = std::get_if<ArrayPtr>(&value)) {
      if (arrays.add(*arr)) push((*arr)->elements, stack);
    } else if (const auto* ta = std::get_if<TypedArrayPtr>(&value)) {
      typed_arrays.add(*ta);
    } else if (const auto* fn = std::get_if<FunctionPtr>(&value)) {
      if (functions.add(*fn)) stack.emplace_back(EnterEnv{&(*fn)->closure});
    } else if (const auto* dom = std::get_if<DomNodePtr>(&value)) {
      stack.emplace_back(Range<DomNodePtr>{dom, dom + 1});
    }
    // Primitives, natives (by name) and host objects (by restore
    // expression) need no discovery.
  }

  void visit_dom(const DomNodePtr& node, std::vector<Step>& stack) {
    if (attached && attached->count(node.get())) return;
    if (!dom_nodes.add(node)) return;
    if (node->canvas_data) typed_arrays.add(node->canvas_data);
    // Listeners before the children's subtrees.
    push(node->children, stack);
    push(node->listeners, stack);
  }

  void run(EnterEnv step, std::vector<Step>& stack) {
    const EnvPtr& env = *step.env;
    if (!env || env.get() == global_env || environments.id.count(env.get())) {
      return;
    }
    // Parents first → smaller ids.
    stack.emplace_back(NumberEnv{step.env});
    stack.emplace_back(EnterEnv{&env->parent()});
  }

  void run(NumberEnv step, std::vector<Step>& stack) {
    // The parent's slots can reach this environment through another
    // closure over it; it is then numbered twice and the later id is the
    // one referenced.
    const EnvPtr& env = *step.env;
    environments.id[env.get()] = environments.list.size();
    environments.list.push_back(env);
    push(env->slots(), stack);
  }
};

/// Serializer: one heap discovery, then ordered emission of shells before
/// fills, so cycles and shared references rebuild with their identity.
///
/// A full capture rebuilds the realm from nothing. A differential capture
/// rebuilds only the globals whose hash moved since a baseline fingerprint,
/// on the realm that holds the baseline: attached DOM nodes are referenced
/// through __domByIndex(k), detached ones are named __n, and attached
/// nodes whose content changed get content updates.
class Writer {
 public:
  Writer(Interpreter& interp, const SnapshotOptions& options,
         bool differential)
      : interp_(interp),
        options_(options),
        heap_(interp, differential ? &attached_ : nullptr),
        dom_prefix_(differential ? "__n" : "__d") {}

  SnapshotResult full() {
    // The DOM is always app state: discover the whole body tree first so
    // tree order determines DOM ids deterministically.
    heap_.add_dom(interp_.document().body());
    for (const auto& [name, value] : interp_.globals()->slots()) {
      if (interp_.is_ambient_binding(name, value)) continue;
      globals_.emplace_back(name, value);
      heap_.add(value);
    }
    for (const auto& ev : interp_.event_queue()) {
      heap_.add_dom(ev.target);
      heap_.add(ev.detail);
    }

    put("(function() {\nvar __d0 = document.body;\n");
    emit_heap();
    // Attributes/text/canvas for every node (including body), then tree
    // structure, then listeners.
    const std::size_t n = heap_.dom_nodes.list.size();
    for (std::size_t i = 0; i < n; ++i) emit_dom_content(i);
    for (std::size_t i = 0; i < n; ++i) emit_dom_children(i);
    for (std::size_t i = 0; i < n; ++i) emit_dom_listeners(i);
    emit_globals_and_events();
    return finish();
  }

  /// The diff against `baseline`, or nullopt when only a full snapshot is
  /// correct: the DOM structure changed, or a changed global's subgraph
  /// shares a cell with state the server keeps (rebuilding it would split
  /// its identity).
  std::optional<SnapshotResult> diff(const RealmFingerprint& baseline) {
    const RealmFingerprint now = fingerprint_realm(interp_);
    if (now.dom_structure != baseline.dom_structure ||
        now.dom_content.size() != baseline.dom_content.size()) {
      return std::nullopt;
    }
    index_attached(interp_.document().body());

    // What the server keeps: globals whose hash matches the baseline, and
    // every listener of the attached tree (with its environments).
    Heap unchanged(interp_, &attached_);
    for (const auto& [name, value] : interp_.globals()->slots()) {
      if (interp_.is_ambient_binding(name, value)) continue;
      const std::uint64_t* base_hash = baseline.find(name);
      if (base_hash && *base_hash == *now.find(name)) {
        unchanged.add(value);
      } else {
        globals_.emplace_back(name, value);
        heap_.add(value);
      }
    }
    for (const DomNodePtr& node : attached_list_) {
      for (const auto& [type, handler] : node->listeners) {
        unchanged.add(handler);
      }
    }
    for (const auto& ev : interp_.event_queue()) {
      heap_.add(ev.detail);
      heap_.add_dom(ev.target);
    }
    if (heap_.shares_with(unchanged)) return std::nullopt;

    put("(function() {\n");
    emit_heap();
    for (std::size_t i = 0; i < heap_.dom_nodes.list.size(); ++i) {
      emit_dom_content(i);
      emit_dom_children(i);
      emit_dom_listeners(i);
    }
    for (std::size_t i = 0; i < now.dom_content.size(); ++i) {
      if (now.dom_content[i] != baseline.dom_content[i]) {
        emit_content_update(i);
      }
    }
    for (const auto& [name, h] : baseline.globals) {
      if (!now.find(name)) put(name, " = undefined;\n");
    }
    emit_globals_and_events();
    return finish();
  }

 private:
  void index_attached(const DomNodePtr& body) {
    walk_pre_order(body, [&](const DomNodePtr& node) {
      attached_.emplace(node.get(), attached_.size());
      attached_list_.push_back(node);
      return true;
    });
  }

  SnapshotResult finish() {
    put("})();\n");
    SnapshotResult result;
    result.stats = stats_;
    result.stats.total_bytes = out_.size();
    result.program = std::move(out_);
    return result;
  }

  // ------------------------------------------------------------- emission

  /// Parts of a statement for put(): text as is, a size_t in decimal, and
  /// these wrappers.
  struct Quoted {  ///< a double-quoted string literal
    std::string_view s;
  };
  struct Expr {  ///< the expression that yields a value once rebuilt
    const Value& v;
  };
  struct Env {  ///< an environment's name; null for the global one
    const Environment* e;
  };
  struct Dom {  ///< a node's name, or __domByIndex(k) if attached
    const DomNode* d;
  };

  template <typename... Parts>
  void put(const Parts&... parts) {
    (put_part(parts), ...);
  }

  /// Environments, typed arrays, object/array/DOM shells, functions, then
  /// the environment, object and array fills.
  void emit_heap() {
    const auto& envs = heap_.environments.list;
    stats_.environments = envs.size();
    for (std::size_t i = 0; i < envs.size(); ++i) {
      put("var __e", i, " = __makeEnv(", Env{envs[i]->parent().get()},
          ");\n");
    }
    const auto& tas = heap_.typed_arrays.list;
    stats_.typed_arrays = tas.size();
    for (std::size_t i = 0; i < tas.size(); ++i) {
      put("var __t", i, " = ");
      const std::size_t start = out_.size();
      if (options_.base64_typed_arrays) {
        put("__f32b64(",
            Quoted{util::base64_encode(std::span(
                reinterpret_cast<const std::uint8_t*>(tas[i]->data.data()),
                tas[i]->data.size() * sizeof(float)))},
            ")");
      } else {
        put_floats(tas[i]->data);
      }
      stats_.typed_array_bytes += out_.size() - start;
      put(";\n");
    }
    const auto& objects = heap_.objects.list;
    stats_.objects = objects.size();
    for (std::size_t i = 0; i < objects.size(); ++i) {
      put("var __o", i, " = {};\n");
    }
    const auto& arrays = heap_.arrays.list;
    stats_.arrays = arrays.size();
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      put("var __a", i, " = [];\n");
    }
    const auto& doms = heap_.dom_nodes.list;
    stats_.dom_nodes = doms.size();
    // A full capture's node 0 is body, which the restoring realm has.
    for (std::size_t i = heap_.attached ? 0 : 1; i < doms.size(); ++i) {
      put("var ", Dom{doms[i].get()}, " = document.createElement(",
          Quoted{doms[i]->tag}, ");\n");
    }
    const auto& fns = heap_.functions.list;
    stats_.functions = fns.size();
    for (std::size_t i = 0; i < fns.size(); ++i) {
      put("var __f", i, " = __closure(", Quoted{fns[i]->source()}, ", ",
          Env{fns[i]->closure.get()}, ");\n");
    }

    for (std::size_t i = 0; i < envs.size(); ++i) {
      for (const auto& [name, value] : envs[i]->slots()) {
        put("__envSlot(__e", i, ", ", Quoted{name}, ", ", Expr{value},
            ");\n");
      }
    }
    for (std::size_t i = 0; i < objects.size(); ++i) {
      for (const auto& [key, value] : objects[i]->properties) {
        put("__o", i, "[", Quoted{key}, "] = ", Expr{value}, ";\n");
      }
    }
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      const auto& elements = arrays[i]->elements;
      for (std::size_t j = 0; j < elements.size(); ++j) {
        put("__a", i, "[", j, "] = ", Expr{elements[j]}, ";\n");
      }
    }
  }

  /// Id, text, attributes and canvas pixels of discovered DOM node `i`.
  void emit_dom_content(std::size_t i) {
    const DomNode* node = heap_.dom_nodes.list[i].get();
    if (!node->id.empty()) put(Dom{node}, ".id = ", Quoted{node->id}, ";\n");
    if (!node->text.empty()) {
      put(Dom{node}, ".textContent = ", Quoted{node->text}, ";\n");
    }
    emit_attributes(node);
    if (node->canvas_data) {
      put(Dom{node}, ".setImageData(__t",
          heap_.typed_arrays.id.at(node->canvas_data.get()), ");\n");
    }
  }

  void emit_dom_children(std::size_t i) {
    const DomNode* node = heap_.dom_nodes.list[i].get();
    for (const auto& child : node->children) {
      put(Dom{node}, ".appendChild(", Dom{child.get()}, ");\n");
    }
  }

  void emit_dom_listeners(std::size_t i) {
    const DomNode* node = heap_.dom_nodes.list[i].get();
    for (const auto& [type, handler] : node->listeners) {
      put(Dom{node}, ".addEventListener(", Quoted{type}, ", ", Expr{handler},
          ");\n");
    }
  }

  /// New text, attributes and pixels of attached node `k` in place. The
  /// pixels are always decimal and count as feature data.
  void emit_content_update(std::size_t k) {
    const DomNode* node = attached_list_.at(k).get();
    put(Dom{node}, ".textContent = ", Quoted{node->text}, ";\n");
    emit_attributes(node);
    if (node->canvas_data) {
      put(Dom{node}, ".setImageData(");
      const std::size_t start = out_.size();
      put_floats(node->canvas_data->data);
      stats_.typed_array_bytes += out_.size() - start;
      put(");\n");
    }
  }

  void emit_attributes(const DomNode* node) {
    for (const auto& [k, v] : node->attributes) {
      put(Dom{node}, ".setAttribute(", Quoted{k}, ", ", Quoted{v}, ");\n");
    }
  }

  void emit_globals_and_events() {
    stats_.globals = globals_.size();
    for (const auto& [name, value] : globals_) {
      put(name, " = ", Expr{value}, ";\n");
    }
    for (const auto& ev : interp_.event_queue()) {
      ++stats_.events;
      put("__dispatchPending(", Dom{ev.target.get()}, ", ", Quoted{ev.type},
          ", ", Expr{ev.detail}, ");\n");
    }
  }

  /// A decimal Float32Array literal, each float in its shortest form.
  void put_floats(const std::vector<float>& data) {
    put("__f32([");
    for (std::size_t j = 0; j < data.size(); ++j) {
      if (j) out_.push_back(',');
      if (std::isfinite(data[j])) {
        char buf[32];
        auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), data[j]);
        out_.append(buf, ptr);
      } else {
        put_number(data[j]);
      }
    }
    put("])");
  }

  /// A double literal. MicroJS has no NaN or Infinity names, so non-finite
  /// values are written as the divisions that produce them.
  void put_number(double d) {
    if (std::isnan(d)) {
      put("0/0");
    } else if (std::isinf(d)) {
      put(d > 0 ? "1/0" : "-1/0");
    } else {
      out_ += number_to_string(d);
    }
  }

  void put_part(std::string_view s) { out_ += s; }

  void put_part(std::size_t n) {
    char buf[24];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), n);
    out_.append(buf, ptr);
  }

  void put_part(Quoted q) {
    out_.reserve(out_.size() + q.s.size() + 2);
    out_.push_back('"');
    for (char c : q.s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x",
                          static_cast<unsigned char>(c));
            out_ += buf;
          } else {
            out_.push_back(c);
          }
      }
    }
    out_.push_back('"');
  }

  void put_part(Env env) {
    if (!env.e || env.e == heap_.global_env) {
      put("null");
    } else {
      put("__e", heap_.environments.id.at(env.e));
    }
  }

  void put_part(Dom dom) {
    if (heap_.attached) {
      if (auto it = attached_.find(dom.d); it != attached_.end()) {
        put("__domByIndex(", it->second, ")");
        return;
      }
    }
    put(dom_prefix_, heap_.dom_nodes.id.at(dom.d));
  }

  void put_part(Expr expr) {
    struct Visitor {
      Writer& w;
      void operator()(const Undefined&) { w.put("undefined"); }
      void operator()(const Null&) { w.put("null"); }
      void operator()(bool b) { w.put(b ? "true" : "false"); }
      void operator()(double d) { w.put_number(d); }
      void operator()(const std::string& s) { w.put(Quoted{s}); }
      void operator()(const ObjectPtr& o) {
        w.put("__o", w.heap_.objects.id.at(o.get()));
      }
      void operator()(const ArrayPtr& a) {
        w.put("__a", w.heap_.arrays.id.at(a.get()));
      }
      void operator()(const FunctionPtr& f) {
        w.put("__f", w.heap_.functions.id.at(f.get()));
      }
      void operator()(const TypedArrayPtr& t) {
        w.put("__t", w.heap_.typed_arrays.id.at(t.get()));
      }
      void operator()(const NativeFnPtr& f) {
        w.put("__native(", Quoted{f->registry_name}, ")");
      }
      void operator()(const HostObjectPtr& h) {
        w.put(h->restore_expression());
      }
      void operator()(const DomNodePtr& d) { w.put(Dom{d.get()}); }
    };
    std::visit(Visitor{*this}, expr.v);
  }

  Interpreter& interp_;
  SnapshotOptions options_;
  DomIndex attached_;
  std::vector<DomNodePtr> attached_list_;
  Heap heap_;
  const char* dom_prefix_;
  SnapshotStats stats_;
  std::string out_;
  /// The globals this program assigns, in slot order.
  std::vector<std::pair<std::string, Value>> globals_;
};

}  // namespace

SnapshotResult capture_snapshot(Interpreter& interp,
                                const SnapshotOptions& options) {
  return Writer(interp, options, false).full();
}

DiffSnapshotResult capture_snapshot_diff(Interpreter& interp,
                                         const RealmFingerprint& baseline,
                                         const SnapshotOptions& options) {
  DiffSnapshotResult result;
  result.base_version = baseline.version;
  std::optional<SnapshotResult> diff =
      Writer(interp, options, true).diff(baseline);
  if (!diff) {
    diff = capture_snapshot(interp, options);
    result.full_fallback = true;
  }
  result.program = std::move(diff->program);
  result.stats = diff->stats;
  return result;
}

void restore_snapshot(Interpreter& interp, const std::string& program) {
  interp.eval_program(program, "snapshot");
}

}  // namespace offload::jsvm
