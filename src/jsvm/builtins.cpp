// Built-in objects and functions installed into every fresh realm: console,
// Math, document, Float32Array, the collection/DOM method natives, and the
// snapshot-restore intrinsics. Everything registered here is *ambient* —
// present on both client and server browsers — so snapshots reference these
// by name instead of serializing them.
#include <cctype>
#include <cmath>
#include <cstring>

#include "src/jsvm/interpreter.h"
#include "src/jsvm/parser.h"
#include "src/util/base64.h"
#include "src/util/logging.h"

namespace offload::jsvm {
namespace {

Value arg_or_undefined(std::span<Value> args, std::size_t i) {
  return i < args.size() ? args[i] : Value(Undefined{});
}

const ArrayPtr& this_array(const Value& this_value, const char* what) {
  const auto* arr = std::get_if<ArrayPtr>(&this_value);
  if (!arr) throw JsError(std::string(what) + ": receiver is not an array");
  return *arr;
}

const std::string& this_string(const Value& this_value, const char* what) {
  const auto* s = std::get_if<std::string>(&this_value);
  if (!s) throw JsError(std::string(what) + ": receiver is not a string");
  return *s;
}

/// A slice() bound: negative counts back from the end, as in JS; the
/// result is clamped to [0, size].
std::int64_t slice_bound(const Value& arg, std::int64_t size) {
  const std::int64_t i = to_integer_clamped(to_number(arg), -size, size);
  return i < 0 ? i + size : i;
}

const DomNodePtr& this_dom(const Value& this_value, const char* what) {
  const auto* d = std::get_if<DomNodePtr>(&this_value);
  if (!d) throw JsError(std::string(what) + ": receiver is not a DOM node");
  return *d;
}

/// The global `document` object.
class DocumentHost final : public HostObject {
 public:
  std::string_view class_name() const override { return "Document"; }

  Value get_property(Interpreter& interp, std::string_view name) override {
    if (name == "body") return Value(interp.document().body());
    if (name == "getElementById") return interp.native("Document.getElementById");
    if (name == "createElement") return interp.native("Document.createElement");
    throw JsError("document has no property '" + std::string(name) + "'");
  }

  std::string restore_expression() const override { return "document"; }
};

/// Host wrapper around an Environment, only ever created by __makeEnv
/// inside a snapshot's restore IIFE (it never leaks into app state because
/// the IIFE's locals die when restoration finishes).
class EnvHost final : public HostObject {
 public:
  explicit EnvHost(EnvPtr env) : env_(std::move(env)) {}
  std::string_view class_name() const override { return "Environment"; }
  Value get_property(Interpreter&, std::string_view name) override {
    throw JsError("environment has no property '" + std::string(name) + "'");
  }
  std::string restore_expression() const override {
    throw JsError("an Environment handle escaped into app state; "
                  "snapshots cannot serialize it");
  }
  const EnvPtr& env() const { return env_; }

 private:
  EnvPtr env_;
};

EnvPtr env_from_value(const Value& v, const Interpreter& interp) {
  if (is_null(v) || is_undefined(v)) return interp.globals();
  const auto* host = std::get_if<HostObjectPtr>(&v);
  if (host) {
    if (auto env = std::dynamic_pointer_cast<EnvHost>(*host)) {
      return env->env();
    }
  }
  throw JsError("expected an environment handle");
}

TypedArrayPtr make_f32(const Value& arg) {
  auto ta = std::make_shared<TypedArray>();
  if (const auto* n = std::get_if<double>(&arg)) {
    ta->data.assign(to_length(*n, "Float32Array"), 0.0f);
    return ta;
  }
  if (const auto* arr = std::get_if<ArrayPtr>(&arg)) {
    ta->data.reserve((*arr)->elements.size());
    for (const auto& v : (*arr)->elements) {
      ta->data.push_back(static_cast<float>(to_number(v)));
    }
    return ta;
  }
  if (const auto* src = std::get_if<TypedArrayPtr>(&arg)) {
    ta->data = (*src)->data;  // copy, like new Float32Array(other)
    return ta;
  }
  throw JsError("Float32Array: expected length or array");
}

}  // namespace

void Interpreter::install_builtins() {
  // ------------------------------------------------------------- console
  auto console = make_object();
  console->set("log",
               register_native("console.log", [](Interpreter& interp,
                                                 const Value&,
                                                 std::span<Value> args) {
                 std::string line;
                 for (std::size_t i = 0; i < args.size(); ++i) {
                   if (i) line += ' ';
                   line += to_display_string(args[i]);
                 }
                 OFFLOAD_LOG_INFO << "[console] " << line;
                 interp.append_console_output(std::move(line));
                 return Undefined{};
               }));
  console->set("error", native("console.log"));
  set_global("console", console);

  // ---------------------------------------------------------------- Math
  auto math = make_object();
  auto unary_math = [&](const char* name, double (*fn)(double)) {
    math->set(name, register_native(std::string("Math.") + name,
                                    [fn](Interpreter&, const Value&,
                                         std::span<Value> args) -> Value {
                                      return fn(to_number(
                                          arg_or_undefined(args, 0)));
                                    }));
  };
  unary_math("floor", +[](double x) { return std::floor(x); });
  unary_math("ceil", +[](double x) { return std::ceil(x); });
  unary_math("round", +[](double x) { return std::round(x); });
  unary_math("sqrt", +[](double x) { return std::sqrt(x); });
  unary_math("abs", +[](double x) { return std::fabs(x); });
  unary_math("exp", +[](double x) { return std::exp(x); });
  unary_math("log", +[](double x) { return std::log(x); });
  math->set("pow", register_native("Math.pow", [](Interpreter&, const Value&,
                                                  std::span<Value> args) -> Value {
              return std::pow(to_number(arg_or_undefined(args, 0)),
                              to_number(arg_or_undefined(args, 1)));
            }));
  math->set("max", register_native("Math.max", [](Interpreter&, const Value&,
                                                  std::span<Value> args) -> Value {
              if (args.empty()) throw JsError("Math.max: no arguments");
              double m = to_number(args[0]);
              for (auto& a : args.subspan(1)) m = std::max(m, to_number(a));
              return m;
            }));
  math->set("min", register_native("Math.min", [](Interpreter&, const Value&,
                                                  std::span<Value> args) -> Value {
              if (args.empty()) throw JsError("Math.min: no arguments");
              double m = to_number(args[0]);
              for (auto& a : args.subspan(1)) m = std::min(m, to_number(a));
              return m;
            }));
  // Deterministic: draws from the realm's seeded PCG stream.
  math->set("random",
            register_native("Math.random",
                            [](Interpreter& interp, const Value&,
                               std::span<Value>) -> Value {
                              return interp.rng().canonical();
                            }));
  set_global("Math", math);

  // ------------------------------------------------------- array methods
  register_native("Array.push", [](Interpreter&, const Value& this_value,
                                   std::span<Value> args) -> Value {
    const ArrayPtr& arr = this_array(this_value, "push");
    for (auto& a : args) arr->elements.push_back(a);
    return static_cast<double>(arr->elements.size());
  });
  register_native("Array.pop", [](Interpreter&, const Value& this_value,
                                  std::span<Value>) -> Value {
    const ArrayPtr& arr = this_array(this_value, "pop");
    if (arr->elements.empty()) return Undefined{};
    Value v = std::move(arr->elements.back());
    arr->elements.pop_back();
    return v;
  });
  register_native("Array.indexOf", [](Interpreter&, const Value& this_value,
                                      std::span<Value> args) -> Value {
    const ArrayPtr& arr = this_array(this_value, "indexOf");
    Value needle = arg_or_undefined(args, 0);
    for (std::size_t i = 0; i < arr->elements.size(); ++i) {
      if (values_equal(arr->elements[i], needle)) {
        return static_cast<double>(i);
      }
    }
    return -1.0;
  });
  register_native("Array.join", [](Interpreter&, const Value& this_value,
                                   std::span<Value> args) -> Value {
    const ArrayPtr& arr = this_array(this_value, "join");
    std::string sep = args.empty() ? "," : to_display_string(args[0]);
    std::string out;
    for (std::size_t i = 0; i < arr->elements.size(); ++i) {
      if (i) out += sep;
      out += to_display_string(arr->elements[i]);
    }
    return out;
  });
  register_native("Array.slice", [](Interpreter& interp,
                                    const Value& this_value,
                                    std::span<Value> args) -> Value {
    const ArrayPtr& arr = this_array(this_value, "slice");
    auto size = static_cast<std::int64_t>(arr->elements.size());
    std::int64_t from = args.empty() ? 0 : slice_bound(args[0], size);
    std::int64_t to = args.size() < 2 ? size : slice_bound(args[1], size);
    auto out = interp.make_array();
    for (std::int64_t i = from; i < to; ++i) {
      out->elements.push_back(arr->elements[static_cast<std::size_t>(i)]);
    }
    return out;
  });

  // ------------------------------------------------------ string methods
  register_native("String.charAt", [](Interpreter&, const Value& this_value,
                                      std::span<Value> args) -> Value {
    const std::string& s = this_string(this_value, "charAt");
    const auto size = static_cast<std::int64_t>(s.size());
    const std::int64_t i =
        to_integer_clamped(to_number(arg_or_undefined(args, 0)), -1, size);
    if (i < 0 || i >= size) return std::string();
    return std::string(1, s[static_cast<std::size_t>(i)]);
  });
  register_native("String.indexOf", [](Interpreter&, const Value& this_value,
                                       std::span<Value> args) -> Value {
    const std::string& s = this_string(this_value, "indexOf");
    std::string needle = to_display_string(arg_or_undefined(args, 0));
    auto pos = s.find(needle);
    return pos == std::string::npos ? -1.0 : static_cast<double>(pos);
  });
  register_native("String.slice", [](Interpreter&, const Value& this_value,
                                     std::span<Value> args) -> Value {
    const std::string& s = this_string(this_value, "slice");
    auto size = static_cast<std::int64_t>(s.size());
    std::int64_t from = args.empty() ? 0 : slice_bound(args[0], size);
    std::int64_t to = args.size() < 2 ? size : slice_bound(args[1], size);
    if (from >= to) return std::string();
    return s.substr(static_cast<std::size_t>(from),
                    static_cast<std::size_t>(to - from));
  });
  register_native("String.split", [](Interpreter& interp,
                                     const Value& this_value,
                                     std::span<Value> args) -> Value {
    const std::string& s = this_string(this_value, "split");
    std::string sep = to_display_string(arg_or_undefined(args, 0));
    auto out = interp.make_array();
    if (sep.empty()) {
      for (char c : s) out->elements.emplace_back(std::string(1, c));
      return out;
    }
    std::size_t start = 0;
    while (true) {
      std::size_t pos = s.find(sep, start);
      if (pos == std::string::npos) {
        out->elements.emplace_back(s.substr(start));
        break;
      }
      out->elements.emplace_back(s.substr(start, pos - start));
      start = pos + sep.size();
    }
    return out;
  });
  register_native("String.toUpperCase",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value>) -> Value {
                    std::string s = this_string(this_value, "toUpperCase");
                    for (char& c : s) c = static_cast<char>(std::toupper(
                                         static_cast<unsigned char>(c)));
                    return s;
                  });
  register_native("String.toLowerCase",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value>) -> Value {
                    std::string s = this_string(this_value, "toLowerCase");
                    for (char& c : s) c = static_cast<char>(std::tolower(
                                         static_cast<unsigned char>(c)));
                    return s;
                  });

  // --------------------------------------------------------- DOM methods
  register_native("Dom.appendChild", [](Interpreter&, const Value& this_value,
                                        std::span<Value> args) -> Value {
    const DomNodePtr& node = this_dom(this_value, "appendChild");
    Value arg = arg_or_undefined(args, 0);
    const auto* child = std::get_if<DomNodePtr>(&arg);
    if (!child) throw JsError("appendChild: argument is not a DOM node");
    node->append_child(*child);
    return arg;
  });
  register_native("Dom.removeChild", [](Interpreter&, const Value& this_value,
                                        std::span<Value> args) -> Value {
    const DomNodePtr& node = this_dom(this_value, "removeChild");
    Value arg = arg_or_undefined(args, 0);
    const auto* child = std::get_if<DomNodePtr>(&arg);
    if (!child) throw JsError("removeChild: argument is not a DOM node");
    if (!node->remove_child(*child)) {
      throw JsError("removeChild: node is not a child");
    }
    return arg;
  });
  register_native("Dom.addEventListener",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value> args) -> Value {
                    const DomNodePtr& node =
                        this_dom(this_value, "addEventListener");
                    std::string type =
                        to_display_string(arg_or_undefined(args, 0));
                    Value handler = arg_or_undefined(args, 1);
                    if (!is_callable(handler)) {
                      throw JsError("addEventListener: handler not callable");
                    }
                    node->listeners.emplace_back(std::move(type),
                                                 std::move(handler));
                    return Undefined{};
                  });
  register_native("Dom.removeEventListener",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value> args) -> Value {
                    const DomNodePtr& node =
                        this_dom(this_value, "removeEventListener");
                    std::string type =
                        to_display_string(arg_or_undefined(args, 0));
                    Value handler = arg_or_undefined(args, 1);
                    auto& ls = node->listeners;
                    for (auto it = ls.begin(); it != ls.end(); ++it) {
                      if (it->first == type &&
                          values_equal(it->second, handler)) {
                        ls.erase(it);
                        break;
                      }
                    }
                    return Undefined{};
                  });
  register_native("Dom.dispatchEvent",
                  [](Interpreter& interp, const Value& this_value,
                     std::span<Value> args) -> Value {
                    const DomNodePtr& node =
                        this_dom(this_value, "dispatchEvent");
                    std::string type =
                        to_display_string(arg_or_undefined(args, 0));
                    interp.enqueue_event(node, std::move(type),
                                         arg_or_undefined(args, 1));
                    return Undefined{};
                  });
  register_native("Dom.setAttribute", [](Interpreter&, const Value& this_value,
                                         std::span<Value> args) -> Value {
    const DomNodePtr& node = this_dom(this_value, "setAttribute");
    node->set_attribute(to_display_string(arg_or_undefined(args, 0)),
                        to_display_string(arg_or_undefined(args, 1)));
    return Undefined{};
  });
  register_native("Dom.getAttribute", [](Interpreter&, const Value& this_value,
                                         std::span<Value> args) -> Value {
    const DomNodePtr& node = this_dom(this_value, "getAttribute");
    const std::string* attr =
        node->get_attribute(to_display_string(arg_or_undefined(args, 0)));
    if (!attr) return Null{};
    return *attr;
  });
  register_native("Dom.getImageData",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value>) -> Value {
                    const DomNodePtr& node =
                        this_dom(this_value, "getImageData");
                    if (node->tag != "canvas") {
                      throw JsError("getImageData: not a canvas");
                    }
                    if (!node->canvas_data) {
                      throw JsError("getImageData: canvas is empty");
                    }
                    return node->canvas_data;
                  });
  register_native("Dom.setImageData",
                  [](Interpreter&, const Value& this_value,
                     std::span<Value> args) -> Value {
                    const DomNodePtr& node =
                        this_dom(this_value, "setImageData");
                    if (node->tag != "canvas") {
                      throw JsError("setImageData: not a canvas");
                    }
                    Value arg = arg_or_undefined(args, 0);
                    const auto* ta = std::get_if<TypedArrayPtr>(&arg);
                    if (!ta) {
                      throw JsError("setImageData: expected Float32Array");
                    }
                    node->canvas_data = *ta;
                    return Undefined{};
                  });

  // ------------------------------------------------------------ document
  register_native("Document.getElementById",
                  [](Interpreter& interp, const Value&,
                     std::span<Value> args) -> Value {
                    std::string id =
                        to_display_string(arg_or_undefined(args, 0));
                    DomNodePtr node = interp.document().get_element_by_id(id);
                    if (!node) return Null{};
                    return node;
                  });
  register_native("Document.createElement",
                  [](Interpreter&, const Value&,
                     std::span<Value> args) -> Value {
                    return Document::create_element(
                        to_display_string(arg_or_undefined(args, 0)));
                  });
  set_global("document", std::make_shared<DocumentHost>());

  // ------------------------------------------------------- typed arrays
  auto f32_ctor = register_native(
      "Float32Array", [](Interpreter&, const Value&,
                         std::span<Value> args) -> Value {
        return make_f32(arg_or_undefined(args, 0));
      });
  set_global("Float32Array", f32_ctor);

  // ------------------------------------------- snapshot restore intrinsics
  set_global("__f32", f32_ctor);
  set_global("__f32b64",
             register_native("__f32b64", [](Interpreter&, const Value&,
                                            std::span<Value> args) -> Value {
               Value arg = arg_or_undefined(args, 0);
               const auto* text = std::get_if<std::string>(&arg);
               if (!text) throw JsError("__f32b64: expected string");
               util::Bytes bytes = util::base64_decode(*text);
               if (bytes.size() % 4 != 0) {
                 throw JsError("__f32b64: byte count not a multiple of 4");
               }
               auto ta = std::make_shared<TypedArray>();
               ta->data.resize(bytes.size() / 4);
               std::memcpy(ta->data.data(), bytes.data(), bytes.size());
               return ta;
             }));
  set_global("__native",
             register_native("__native", [](Interpreter& interp, const Value&,
                                            std::span<Value> args) -> Value {
               std::string name = to_display_string(arg_or_undefined(args, 0));
               NativeFnPtr fn = interp.native(name);
               if (!fn) throw JsError("__native: unknown native " + name);
               return fn;
             }));
  set_global("__makeEnv",
             register_native("__makeEnv", [](Interpreter& interp, const Value&,
                                             std::span<Value> args) -> Value {
               EnvPtr parent =
                   env_from_value(arg_or_undefined(args, 0), interp);
               return std::make_shared<EnvHost>(
                   interp.make_env(std::move(parent)));
             }));
  set_global("__envSlot",
             register_native("__envSlot", [](Interpreter& interp, const Value&,
                                             std::span<Value> args) -> Value {
               EnvPtr env = env_from_value(arg_or_undefined(args, 0), interp);
               std::string name = to_display_string(arg_or_undefined(args, 1));
               env->declare(name, arg_or_undefined(args, 2));
               return Undefined{};
             }));
  set_global(
      "__closure",
      register_native("__closure", [](Interpreter& interp, const Value&,
                                      std::span<Value> args) -> Value {
        Value src_v = arg_or_undefined(args, 0);
        const auto* src = std::get_if<std::string>(&src_v);
        if (!src) throw JsError("__closure: expected function source");
        EnvPtr env = env_from_value(arg_or_undefined(args, 1), interp);
        ProgramPtr program = parse_function_source(*src);
        const auto& stmt =
            static_cast<const ExprStmt&>(*program->statements.front());
        const auto& fn_expr = static_cast<const FunctionExpr&>(*stmt.expr);
        auto fn = std::make_shared<FunctionObj>();
        fn->name = fn_expr.name;
        fn->decl = &fn_expr;
        fn->program = program;
        fn->closure = std::move(env);
        return fn;
      }));
  set_global(
      "__domByIndex",
      register_native("__domByIndex", [](Interpreter& interp, const Value&,
                                         std::span<Value> args) -> Value {
        // DFS index over the body tree (body itself = 0). Differential
        // snapshots use this to address server-side DOM nodes in place.
        const double want = to_number(arg_or_undefined(args, 0));
        double counter = 0;
        DomNodePtr found = find_pre_order(
            interp.document().body(),
            [&](const DomNodePtr&) { return counter++ == want; });
        if (!found) {
          throw JsError("__domByIndex: no node at index " +
                        number_to_string(want));
        }
        return found;
      }));
  set_global("__dispatchPending",
             register_native("__dispatchPending",
                             [](Interpreter& interp, const Value&,
                                std::span<Value> args) -> Value {
                               Value target = arg_or_undefined(args, 0);
                               const auto* node =
                                   std::get_if<DomNodePtr>(&target);
                               if (!node) {
                                 throw JsError(
                                     "__dispatchPending: expected DOM node");
                               }
                               interp.enqueue_event(
                                   *node,
                                   to_display_string(arg_or_undefined(args, 1)),
                                   arg_or_undefined(args, 2));
                               return Undefined{};
                             }));
}

}  // namespace offload::jsvm
