#include "src/jsvm/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/jsvm/env.h"

namespace offload::jsvm {
namespace {

/// The queue of the outermost cell destructor running on this thread;
/// destructors it triggers queue their children there instead of
/// recursing. A raw pointer, so it outlives every static Value.
thread_local std::vector<Value>* t_pending_release = nullptr;

/// Queue `ptr` if dropping it frees what it points to; otherwise drop it
/// in place, which only decrements a count.
template <class Ptr>
void release(Ptr& ptr, std::vector<Value>& pending) {
  if (ptr.use_count() == 1) {
    pending.emplace_back(std::move(ptr));
  } else {
    ptr.reset();
  }
}

void release(Value& v, std::vector<Value>& pending) {
  std::visit(
      [&](auto& x) {
        if constexpr (requires { x.use_count(); }) release(x, pending);
      },
      v);
}

/// Runs `queue_children(pending)` to take a dying cell's references, then,
/// in the outermost such call only, frees the queue in a loop: freeing one
/// queued cell queues its own children instead of recursing into them.
template <class QueueChildren>
void release_children(QueueChildren queue_children) {
  std::vector<Value> own;
  std::vector<Value>& pending = t_pending_release ? *t_pending_release : own;
  queue_children(pending);
  if (&pending != &own) return;
  t_pending_release = &own;
  while (!own.empty()) {
    // Destroying the last reference here queues that value's children.
    Value v = std::move(own.back());
    own.pop_back();
  }
  t_pending_release = nullptr;
}

void unlink(HeapLink& link) {
  link.prev->next = link.next;
  link.next->prev = link.prev;
  link.prev = link.next = nullptr;
}

}  // namespace

HeapCell::~HeapCell() {
  if (prev) unlink(*this);
}

void Heap::link(HeapCell& cell) {
  HeapLink& l = cell;
  l.prev = head_.prev;
  l.next = &head_;
  head_.prev->next = &l;
  head_.prev = &l;
}

Heap::~Heap() {
  HeapSink sink;
  while (head_.next != &head_) {
    auto& cell = static_cast<HeapCell&>(*head_.next);
    unlink(cell);
    cell.drain(sink);
  }
  // `sink` dies here. Every cell it frees was drained above and holds
  // nothing, and cells that outlive the realm stay as empty shells.
}

Object::~Object() {
  release_children([&](std::vector<Value>& pending) {
    for (auto& [key, v] : properties) release(v, pending);
  });
}

void Object::drain(HeapSink& sink) {
  sink.named.push_back(std::move(properties));
  properties.clear();
}

ArrayObj::~ArrayObj() {
  release_children([&](std::vector<Value>& pending) {
    for (Value& v : elements) release(v, pending);
  });
}

void ArrayObj::drain(HeapSink& sink) {
  sink.elements.push_back(std::move(elements));
  elements.clear();
}

Environment::~Environment() {
  release_children([&](std::vector<Value>& pending) {
    for (auto& [name, v] : slots_) release(v, pending);
  });
}

void Environment::drain(HeapSink& sink) {
  sink.named.push_back(std::move(slots_));
  slots_.clear();
  index_.clear();
  sink.parents.push_back(std::move(parent_));
}

DomNode::~DomNode() {
  release_children([&](std::vector<Value>& pending) {
    for (DomNodePtr& child : children) release(child, pending);
    for (auto& [type, handler] : listeners) release(handler, pending);
  });
}

Value* Object::find(std::string_view key) {
  for (auto& [k, v] : properties) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value* Object::find(std::string_view key) const {
  for (const auto& [k, v] : properties) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value Object::get(std::string_view key) const {
  const Value* v = find(key);
  return v ? *v : Value(Undefined{});
}

void Object::set(std::string_view key, Value value) {
  if (Value* v = find(key)) {
    *v = std::move(value);
  } else {
    properties.emplace_back(std::string(key), std::move(value));
  }
}

bool Object::erase(std::string_view key) {
  auto it = std::find_if(properties.begin(), properties.end(),
                         [&](const auto& p) { return p.first == key; });
  if (it == properties.end()) return false;
  properties.erase(it);
  return true;
}

void DomNode::append_child(const DomNodePtr& child) {
  if (!child) throw JsError("appendChild: null child");
  // Tree walks assume a tree: refuse an ancestor (the DOM's
  // HierarchyRequestError). A leaf is no one's ancestor, so chains build fast.
  if (!child->children.empty() || child.get() == this) {
    for (const DomNode* n = this; n; n = n->parent.lock().get()) {
      if (n == child.get()) {
        throw JsError("appendChild: the child contains the parent");
      }
    }
  }
  if (auto old = child->parent.lock()) old->remove_child(child);
  child->parent = weak_from_this();
  children.push_back(child);
}

bool DomNode::remove_child(const DomNodePtr& child) {
  auto it = std::find(children.begin(), children.end(), child);
  if (it == children.end()) return false;
  (*it)->parent.reset();
  children.erase(it);
  return true;
}

const std::string* DomNode::get_attribute(std::string_view name) const {
  for (const auto& [k, v] : attributes) {
    if (k == name) return &v;
  }
  return nullptr;
}

void DomNode::set_attribute(std::string_view name, std::string value) {
  for (auto& [k, v] : attributes) {
    if (k == name) {
      v = std::move(value);
      return;
    }
  }
  attributes.emplace_back(std::string(name), std::move(value));
}

bool is_undefined(const Value& v) {
  return std::holds_alternative<Undefined>(v);
}

bool is_null(const Value& v) { return std::holds_alternative<Null>(v); }

bool is_callable(const Value& v) {
  return std::holds_alternative<FunctionPtr>(v) ||
         std::holds_alternative<NativeFnPtr>(v);
}

bool truthy(const Value& v) {
  if (std::holds_alternative<Undefined>(v) || std::holds_alternative<Null>(v))
    return false;
  if (const bool* b = std::get_if<bool>(&v)) return *b;
  if (const double* d = std::get_if<double>(&v)) {
    return *d != 0.0 && !std::isnan(*d);
  }
  if (const std::string* s = std::get_if<std::string>(&v)) return !s->empty();
  return true;  // all reference types
}

std::string_view type_of(const Value& v) {
  struct Visitor {
    std::string_view operator()(const Undefined&) { return "undefined"; }
    std::string_view operator()(const Null&) { return "object"; }
    std::string_view operator()(bool) { return "boolean"; }
    std::string_view operator()(double) { return "number"; }
    std::string_view operator()(const std::string&) { return "string"; }
    std::string_view operator()(const ObjectPtr&) { return "object"; }
    std::string_view operator()(const ArrayPtr&) { return "object"; }
    std::string_view operator()(const FunctionPtr&) { return "function"; }
    std::string_view operator()(const TypedArrayPtr&) { return "object"; }
    std::string_view operator()(const NativeFnPtr&) { return "function"; }
    std::string_view operator()(const HostObjectPtr&) { return "object"; }
    std::string_view operator()(const DomNodePtr&) { return "object"; }
  };
  return std::visit(Visitor{}, v);
}

double to_number(const Value& v) {
  if (const double* d = std::get_if<double>(&v)) return *d;
  if (const bool* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  throw JsError(std::string("cannot convert ") + std::string(type_of(v)) +
                " to number");
}

std::int64_t to_integer_clamped(double d, std::int64_t lo, std::int64_t hi) {
  if (std::isnan(d)) d = 0;
  if (d <= static_cast<double>(lo)) return lo;
  if (d >= static_cast<double>(hi)) return hi;
  return static_cast<std::int64_t>(d);
}

std::size_t to_length(double d, const char* what) {
  constexpr std::int64_t kMaxLength = 4294967295;  // 2^32 - 1
  const std::int64_t n = to_integer_clamped(d, -1, kMaxLength + 1);
  if (n < 0 || n > kMaxLength || static_cast<double>(n) != d) {
    throw JsError(std::string(what) + ": bad length " + number_to_string(d));
  }
  return static_cast<std::size_t>(n);
}

std::string number_to_string(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  if (v == 0.0) return std::signbit(v) ? "-0.0" : "0";  // keep the sign bit
  // Integers render without a decimal point (like JS).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v));
    return std::string(buf, ptr);
  }
  char buf[40];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, ptr);
}

std::string to_display_string(const Value& v) {
  struct Visitor {
    std::string operator()(const Undefined&) { return "undefined"; }
    std::string operator()(const Null&) { return "null"; }
    std::string operator()(bool b) { return b ? "true" : "false"; }
    std::string operator()(double d) { return number_to_string(d); }
    std::string operator()(const std::string& s) { return s; }
    std::string operator()(const ObjectPtr& o) {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, val] : o->properties) {
        if (!first) out += ", ";
        first = false;
        out += k + ": " + to_display_string(val);
      }
      return out + "}";
    }
    std::string operator()(const ArrayPtr& a) {
      std::string out = "[";
      for (std::size_t i = 0; i < a->elements.size(); ++i) {
        if (i) out += ", ";
        out += to_display_string(a->elements[i]);
      }
      return out + "]";
    }
    std::string operator()(const FunctionPtr& f) {
      return "function " + f->name + "() {...}";
    }
    std::string operator()(const TypedArrayPtr& t) {
      return "Float32Array(" + std::to_string(t->data.size()) + ")";
    }
    std::string operator()(const NativeFnPtr& f) {
      return "function " + f->registry_name + "() {[native]}";
    }
    std::string operator()(const HostObjectPtr& h) {
      return "[" + std::string(h->class_name()) + "]";
    }
    std::string operator()(const DomNodePtr& d) {
      return "<" + d->tag + (d->id.empty() ? "" : " id=" + d->id) + ">";
    }
  };
  return std::visit(Visitor{}, v);
}

bool values_equal(const Value& a, const Value& b) {
  const bool a_nullish = is_undefined(a) || is_null(a);
  const bool b_nullish = is_undefined(b) || is_null(b);
  if (a_nullish || b_nullish) return a_nullish && b_nullish;
  if (a.index() != b.index()) {
    // Allow number == bool via numeric coercion, nothing else.
    if ((std::holds_alternative<double>(a) && std::holds_alternative<bool>(b)) ||
        (std::holds_alternative<bool>(a) && std::holds_alternative<double>(b))) {
      return to_number(a) == to_number(b);
    }
    return false;
  }
  struct Visitor {
    const Value& b;
    bool operator()(const Undefined&) { return true; }
    bool operator()(const Null&) { return true; }
    bool operator()(bool x) { return x == std::get<bool>(b); }
    bool operator()(double x) { return x == std::get<double>(b); }
    bool operator()(const std::string& x) {
      return x == std::get<std::string>(b);
    }
    bool operator()(const ObjectPtr& x) { return x == std::get<ObjectPtr>(b); }
    bool operator()(const ArrayPtr& x) { return x == std::get<ArrayPtr>(b); }
    bool operator()(const FunctionPtr& x) {
      return x == std::get<FunctionPtr>(b);
    }
    bool operator()(const TypedArrayPtr& x) {
      return x == std::get<TypedArrayPtr>(b);
    }
    bool operator()(const NativeFnPtr& x) {
      return x == std::get<NativeFnPtr>(b);
    }
    bool operator()(const HostObjectPtr& x) {
      return x == std::get<HostObjectPtr>(b);
    }
    bool operator()(const DomNodePtr& x) { return x == std::get<DomNodePtr>(b); }
  };
  return std::visit(Visitor{b}, a);
}

}  // namespace offload::jsvm
