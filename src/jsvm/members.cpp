// Property and index access dispatch for every value type, including the
// DOM and host objects. Methods on built-in types (arrays, strings, DOM
// nodes) are unbound registry natives that read their receiver from
// `this`, so storing them in variables keeps them snapshot-safe.
#include "src/jsvm/interpreter.h"

namespace offload::jsvm {
namespace {

std::int64_t to_index(const Value& index, std::size_t size, const char* what,
                      bool allow_end = false) {
  const double d = to_number(index);
  const auto limit = static_cast<std::int64_t>(size) + (allow_end ? 0 : -1);
  const std::int64_t i = to_integer_clamped(d, -1, limit + 1);
  if (i < 0 || static_cast<double>(i) != d) {
    throw JsError(std::string(what) + ": bad index " + number_to_string(d));
  }
  if (i > limit) {
    throw JsError(std::string(what) + ": index " + std::to_string(i) +
                  " out of range (size " + std::to_string(size) + ")");
  }
  return i;
}

}  // namespace

Value Interpreter::get_member(const Value& object, std::string_view name) {
  if (const auto* obj = std::get_if<ObjectPtr>(&object)) {
    return (*obj)->get(name);
  }
  if (const auto* arr = std::get_if<ArrayPtr>(&object)) {
    if (name == "length") {
      return static_cast<double>((*arr)->elements.size());
    }
    if (name == "push" || name == "pop" || name == "indexOf" ||
        name == "join" || name == "slice") {
      return native("Array." + std::string(name));
    }
    throw JsError("array has no property '" + std::string(name) + "'");
  }
  if (const auto* str = std::get_if<std::string>(&object)) {
    if (name == "length") return static_cast<double>(str->size());
    if (name == "charAt" || name == "indexOf" || name == "slice" ||
        name == "split" || name == "toUpperCase" || name == "toLowerCase") {
      return native("String." + std::string(name));
    }
    throw JsError("string has no property '" + std::string(name) + "'");
  }
  if (const auto* ta = std::get_if<TypedArrayPtr>(&object)) {
    if (name == "length") return static_cast<double>((*ta)->data.size());
    throw JsError("Float32Array has no property '" + std::string(name) + "'");
  }
  if (const auto* dom = std::get_if<DomNodePtr>(&object)) {
    const DomNodePtr& node = *dom;
    if (name == "id") return node->id;
    if (name == "tagName") return node->tag;
    if (name == "textContent") return node->text;
    if (name == "parentNode") {
      if (auto p = node->parent.lock()) return Value(p);
      return Null{};
    }
    if (name == "firstChild") {
      if (!node->children.empty()) return Value(node->children.front());
      return Null{};
    }
    if (name == "childCount") {
      return static_cast<double>(node->children.size());
    }
    if (name == "appendChild" || name == "removeChild" ||
        name == "addEventListener" || name == "removeEventListener" ||
        name == "dispatchEvent" || name == "setAttribute" ||
        name == "getAttribute" || name == "getImageData" ||
        name == "setImageData") {
      return native("Dom." + std::string(name));
    }
    throw JsError("DOM node has no property '" + std::string(name) + "'");
  }
  if (const auto* host = std::get_if<HostObjectPtr>(&object)) {
    return (*host)->get_property(*this, name);
  }
  if (const auto* fn = std::get_if<FunctionPtr>(&object)) {
    if (name == "name") return (*fn)->name;
    throw JsError("function has no property '" + std::string(name) + "'");
  }
  if (const auto* fn = std::get_if<NativeFnPtr>(&object)) {
    if (name == "name") return (*fn)->registry_name;
    throw JsError("function has no property '" + std::string(name) + "'");
  }
  throw JsError("cannot read property '" + std::string(name) + "' of " +
                std::string(type_of(object)));
}

void Interpreter::set_member(const Value& object, std::string_view name,
                             Value value) {
  if (const auto* obj = std::get_if<ObjectPtr>(&object)) {
    (*obj)->set(name, std::move(value));
    return;
  }
  if (const auto* arr = std::get_if<ArrayPtr>(&object)) {
    if (name == "length") {
      (*arr)->elements.resize(to_length(to_number(value), "array"),
                              Undefined{});
      return;
    }
    throw JsError("cannot set array property '" + std::string(name) + "'");
  }
  if (const auto* dom = std::get_if<DomNodePtr>(&object)) {
    const DomNodePtr& node = *dom;
    if (name == "id") {
      node->id = to_display_string(value);
      return;
    }
    if (name == "textContent") {
      node->text = to_display_string(value);
      return;
    }
    throw JsError("cannot set DOM property '" + std::string(name) + "'");
  }
  if (const auto* host = std::get_if<HostObjectPtr>(&object)) {
    (*host)->set_property(*this, name, value);
    return;
  }
  throw JsError("cannot set property '" + std::string(name) + "' on " +
                std::string(type_of(object)));
}

Value Interpreter::get_index(const Value& object, const Value& index) {
  if (const auto* arr = std::get_if<ArrayPtr>(&object)) {
    auto i = to_index(index, (*arr)->elements.size(), "array");
    return (*arr)->elements[static_cast<std::size_t>(i)];
  }
  if (const auto* ta = std::get_if<TypedArrayPtr>(&object)) {
    auto i = to_index(index, (*ta)->data.size(), "Float32Array");
    return static_cast<double>((*ta)->data[static_cast<std::size_t>(i)]);
  }
  if (const auto* obj = std::get_if<ObjectPtr>(&object)) {
    if (const auto* key = std::get_if<std::string>(&index)) {
      return (*obj)->get(*key);
    }
    return (*obj)->get(number_to_string(to_number(index)));
  }
  if (const auto* str = std::get_if<std::string>(&object)) {
    auto i = to_index(index, str->size(), "string");
    return std::string(1, (*str)[static_cast<std::size_t>(i)]);
  }
  throw JsError("cannot index " + std::string(type_of(object)));
}

void Interpreter::set_index(const Value& object, const Value& index,
                            Value value) {
  if (const auto* arr = std::get_if<ArrayPtr>(&object)) {
    // Writing one past the end grows the array (common append idiom).
    auto i = to_index(index, (*arr)->elements.size(), "array",
                      /*allow_end=*/true);
    auto& elements = (*arr)->elements;
    if (static_cast<std::size_t>(i) == elements.size()) {
      elements.push_back(std::move(value));
    } else {
      elements[static_cast<std::size_t>(i)] = std::move(value);
    }
    return;
  }
  if (const auto* ta = std::get_if<TypedArrayPtr>(&object)) {
    auto i = to_index(index, (*ta)->data.size(), "Float32Array");
    (*ta)->data[static_cast<std::size_t>(i)] =
        static_cast<float>(to_number(value));
    return;
  }
  if (const auto* obj = std::get_if<ObjectPtr>(&object)) {
    if (const auto* key = std::get_if<std::string>(&index)) {
      (*obj)->set(*key, std::move(value));
    } else {
      (*obj)->set(number_to_string(to_number(index)), std::move(value));
    }
    return;
  }
  throw JsError("cannot index-assign " + std::string(type_of(object)));
}

}  // namespace offload::jsvm
