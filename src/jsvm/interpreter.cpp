#include "src/jsvm/interpreter.h"

#include <cmath>
#include <utility>

#include "src/jsvm/lexer.h"
#include "src/jsvm/parser.h"

namespace offload::jsvm {

namespace {
constexpr int kMaxCallDepth = 512;
}

Interpreter::Interpreter() {
  globals_ = make_env(nullptr);
  this_stack_.push_back(Undefined{});
  install_builtins();
}

void Interpreter::runtime_error(const std::string& message,
                                const Expr* where) const {
  std::string full = message;
  if (where && current_program_) {
    full += " (line " +
            std::to_string(Lexer::line_of(current_program_->source,
                                          where->begin)) +
            " of " + current_program_->origin + ")";
  }
  throw JsError(full);
}

Value Interpreter::eval_program(std::string_view source, std::string origin) {
  return eval_parsed(parse_program(source, std::move(origin)));
}

Value Interpreter::eval_parsed(const ProgramPtr& program) {
  ProgramPtr saved = std::exchange(current_program_, program);
  Value last = Undefined{};
  try {
    for (const auto& stmt : program->statements) {
      Completion c = exec_stmt(*stmt, globals_);
      if (c.flow == Flow::kReturn) {
        runtime_error("return outside function");
      }
      if (c.flow == Flow::kBreak || c.flow == Flow::kContinue) {
        runtime_error("break/continue outside loop");
      }
      if (stmt->kind == StmtKind::kExpr) last = c.value;
    }
  } catch (...) {
    current_program_ = std::move(saved);
    throw;
  }
  current_program_ = std::move(saved);
  return last;
}

// ---------------------------------------------------------------- statements

Interpreter::Completion Interpreter::exec_stmt(const Stmt& stmt,
                                               const EnvPtr& env) {
  ++stats_.statements;
  switch (stmt.kind) {
    case StmtKind::kExpr: {
      const auto& s = static_cast<const ExprStmt&>(stmt);
      return {Flow::kNormal, eval_expr(*s.expr, env)};
    }
    case StmtKind::kVarDecl: {
      const auto& s = static_cast<const VarDeclStmt&>(stmt);
      Value init = s.init ? eval_expr(*s.init, env) : Value(Undefined{});
      env->declare(s.name, std::move(init));
      return {};
    }
    case StmtKind::kFunctionDecl: {
      const auto& s = static_cast<const FunctionDeclStmt&>(stmt);
      env->declare(s.function->name, make_function(*s.function, env));
      return {};
    }
    case StmtKind::kBlock: {
      const auto& s = static_cast<const BlockStmt&>(stmt);
      auto scope = make_env(env);
      return exec_block(s, scope);
    }
    case StmtKind::kIf: {
      const auto& s = static_cast<const IfStmt&>(stmt);
      if (truthy(eval_expr(*s.condition, env))) {
        return exec_stmt(*s.consequent, env);
      }
      if (s.alternate) return exec_stmt(*s.alternate, env);
      return {};
    }
    case StmtKind::kWhile: {
      const auto& s = static_cast<const WhileStmt&>(stmt);
      while (truthy(eval_expr(*s.condition, env))) {
        Completion c = exec_stmt(*s.body, env);
        if (c.flow == Flow::kReturn) return c;
        if (c.flow == Flow::kBreak) break;
      }
      return {};
    }
    case StmtKind::kFor: {
      const auto& s = static_cast<const ForStmt&>(stmt);
      auto scope = make_env(env);
      if (s.init) {
        Completion c = exec_stmt(*s.init, scope);
        if (c.flow != Flow::kNormal) return c;
      }
      while (!s.condition || truthy(eval_expr(*s.condition, scope))) {
        Completion c = exec_stmt(*s.body, scope);
        if (c.flow == Flow::kReturn) return c;
        if (c.flow == Flow::kBreak) break;
        if (s.update) eval_expr(*s.update, scope);
      }
      return {};
    }
    case StmtKind::kReturn: {
      const auto& s = static_cast<const ReturnStmt&>(stmt);
      Value v = s.value ? eval_expr(*s.value, env) : Value(Undefined{});
      return {Flow::kReturn, std::move(v)};
    }
    case StmtKind::kBreak:
      return {Flow::kBreak, Undefined{}};
    case StmtKind::kContinue:
      return {Flow::kContinue, Undefined{}};
  }
  throw JsError("unknown statement kind");
}

Interpreter::Completion Interpreter::exec_block(const BlockStmt& block,
                                                const EnvPtr& env) {
  for (const auto& stmt : block.statements) {
    Completion c = exec_stmt(*stmt, env);
    if (c.flow != Flow::kNormal) return c;
  }
  return {};
}

// --------------------------------------------------------------- expressions

Value Interpreter::make_function(const FunctionExpr& decl, const EnvPtr& env) {
  auto fn = std::make_shared<FunctionObj>();
  fn->name = decl.name;
  fn->decl = &decl;
  fn->program = current_program_;
  // Functions whose defining scope is the global scope snapshot as plain
  // `var f = function...`; others need closure reconstruction.
  fn->closure = env;
  return fn;
}

Value Interpreter::eval_expr(const Expr& expr, const EnvPtr& env) {
  switch (expr.kind) {
    case ExprKind::kNumber:
      return static_cast<const NumberExpr&>(expr).value;
    case ExprKind::kString:
      return static_cast<const StringExpr&>(expr).value;
    case ExprKind::kBool:
      return static_cast<const BoolExpr&>(expr).value;
    case ExprKind::kNull:
      return Null{};
    case ExprKind::kUndefined:
      return Undefined{};
    case ExprKind::kThis:
      return this_stack_.back();
    case ExprKind::kIdentifier: {
      const auto& e = static_cast<const IdentifierExpr&>(expr);
      if (Value* v = env->find(e.name)) return *v;
      runtime_error("'" + e.name + "' is not defined", &expr);
    }
    case ExprKind::kArray: {
      const auto& e = static_cast<const ArrayExpr&>(expr);
      auto arr = make_array();
      if (!e.numbers.empty()) {
        arr->elements.assign(e.numbers.begin(), e.numbers.end());
        return arr;
      }
      arr->elements.reserve(e.elements.size());
      for (const auto& el : e.elements) {
        arr->elements.push_back(eval_expr(*el, env));
      }
      return arr;
    }
    case ExprKind::kObject: {
      const auto& e = static_cast<const ObjectExpr&>(expr);
      auto obj = make_object();
      for (const auto& [key, val] : e.properties) {
        obj->set(key, eval_expr(*val, env));
      }
      return obj;
    }
    case ExprKind::kFunction:
      return make_function(static_cast<const FunctionExpr&>(expr), env);
    case ExprKind::kUnary: {
      const auto& e = static_cast<const UnaryExpr&>(expr);
      if (e.op == UnaryOp::kTypeof) {
        // typeof tolerates unbound identifiers, like JS.
        if (e.operand->kind == ExprKind::kIdentifier) {
          const auto& id = static_cast<const IdentifierExpr&>(*e.operand);
          if (!env->find(id.name)) return std::string("undefined");
        }
        return std::string(type_of(eval_expr(*e.operand, env)));
      }
      Value v = eval_expr(*e.operand, env);
      if (e.op == UnaryOp::kNeg) return -to_number(v);
      return !truthy(v);
    }
    case ExprKind::kUpdate: {
      const auto& e = static_cast<const UpdateExpr&>(expr);
      // Read-modify-write through the same reference.
      const double delta = e.increment ? 1.0 : -1.0;
      if (e.target->kind == ExprKind::kIdentifier) {
        const auto& id = static_cast<const IdentifierExpr&>(*e.target);
        Value* slot = env->find(id.name);
        if (!slot) runtime_error("'" + id.name + "' is not defined", &expr);
        double old = to_number(*slot);
        *slot = old + delta;
        return e.prefix ? old + delta : old;
      }
      if (e.target->kind == ExprKind::kMember) {
        const auto& m = static_cast<const MemberExpr&>(*e.target);
        Value obj = eval_expr(*m.object, env);
        double old = to_number(get_member(obj, m.property));
        set_member(obj, m.property, old + delta);
        return e.prefix ? old + delta : old;
      }
      const auto& ix = static_cast<const IndexExpr&>(*e.target);
      Value obj = eval_expr(*ix.object, env);
      Value idx = eval_expr(*ix.index, env);
      double old = to_number(get_index(obj, idx));
      set_index(obj, idx, old + delta);
      return e.prefix ? old + delta : old;
    }
    case ExprKind::kBinary: {
      const auto& e = static_cast<const BinaryExpr&>(expr);
      Value a = eval_expr(*e.lhs, env);
      Value b = eval_expr(*e.rhs, env);
      switch (e.op) {
        case BinaryOp::kAdd:
          if (std::holds_alternative<std::string>(a) ||
              std::holds_alternative<std::string>(b)) {
            return to_display_string(a) + to_display_string(b);
          }
          return to_number(a) + to_number(b);
        case BinaryOp::kSub:
          return to_number(a) - to_number(b);
        case BinaryOp::kMul:
          return to_number(a) * to_number(b);
        case BinaryOp::kDiv:
          return to_number(a) / to_number(b);
        case BinaryOp::kMod:
          return std::fmod(to_number(a), to_number(b));
        case BinaryOp::kEq:
          return values_equal(a, b);
        case BinaryOp::kNeq:
          return !values_equal(a, b);
        case BinaryOp::kLt:
        case BinaryOp::kGt:
        case BinaryOp::kLe:
        case BinaryOp::kGe: {
          if (std::holds_alternative<std::string>(a) &&
              std::holds_alternative<std::string>(b)) {
            int cmp = std::get<std::string>(a).compare(std::get<std::string>(b));
            switch (e.op) {
              case BinaryOp::kLt: return cmp < 0;
              case BinaryOp::kGt: return cmp > 0;
              case BinaryOp::kLe: return cmp <= 0;
              default: return cmp >= 0;
            }
          }
          double x = to_number(a);
          double y = to_number(b);
          switch (e.op) {
            case BinaryOp::kLt: return x < y;
            case BinaryOp::kGt: return x > y;
            case BinaryOp::kLe: return x <= y;
            default: return x >= y;
          }
        }
      }
      throw JsError("unknown binary op");
    }
    case ExprKind::kLogical: {
      const auto& e = static_cast<const LogicalExpr&>(expr);
      Value a = eval_expr(*e.lhs, env);
      if (e.op == LogicalOp::kAnd) {
        return truthy(a) ? eval_expr(*e.rhs, env) : a;
      }
      return truthy(a) ? a : eval_expr(*e.rhs, env);
    }
    case ExprKind::kConditional: {
      const auto& e = static_cast<const ConditionalExpr&>(expr);
      return truthy(eval_expr(*e.condition, env))
                 ? eval_expr(*e.consequent, env)
                 : eval_expr(*e.alternate, env);
    }
    case ExprKind::kAssign: {
      const auto& e = static_cast<const AssignExpr&>(expr);
      auto combine = [&](const Value& old, Value rhs) -> Value {
        switch (e.op) {
          case AssignOp::kAssign:
            return rhs;
          case AssignOp::kAdd:
            if (std::holds_alternative<std::string>(old) ||
                std::holds_alternative<std::string>(rhs)) {
              return to_display_string(old) + to_display_string(rhs);
            }
            return to_number(old) + to_number(rhs);
          case AssignOp::kSub:
            return to_number(old) - to_number(rhs);
          case AssignOp::kMul:
            return to_number(old) * to_number(rhs);
          case AssignOp::kDiv:
            return to_number(old) / to_number(rhs);
        }
        throw JsError("unknown assignment op");
      };
      Value rhs = eval_expr(*e.value, env);
      if (e.target->kind == ExprKind::kIdentifier) {
        const auto& id = static_cast<const IdentifierExpr&>(*e.target);
        if (Value* slot = env->find(id.name)) {
          *slot = combine(*slot, std::move(rhs));
          return *slot;
        }
        if (e.op != AssignOp::kAssign) {
          runtime_error("'" + id.name + "' is not defined", &expr);
        }
        // JS-style implicit global (the snapshot restore path relies on
        // this to rebuild globals from inside its IIFE).
        globals_->declare(id.name, rhs);
        return rhs;
      }
      if (e.target->kind == ExprKind::kMember) {
        const auto& m = static_cast<const MemberExpr&>(*e.target);
        Value obj = eval_expr(*m.object, env);
        Value out = e.op == AssignOp::kAssign
                        ? std::move(rhs)
                        : combine(get_member(obj, m.property), std::move(rhs));
        set_member(obj, m.property, out);
        return out;
      }
      const auto& ix = static_cast<const IndexExpr&>(*e.target);
      Value obj = eval_expr(*ix.object, env);
      Value idx = eval_expr(*ix.index, env);
      Value out = e.op == AssignOp::kAssign
                      ? std::move(rhs)
                      : combine(get_index(obj, idx), std::move(rhs));
      set_index(obj, idx, out);
      return out;
    }
    case ExprKind::kCall:
      return eval_call(static_cast<const CallExpr&>(expr), env);
    case ExprKind::kMember: {
      const auto& e = static_cast<const MemberExpr&>(expr);
      return get_member(eval_expr(*e.object, env), e.property);
    }
    case ExprKind::kIndex: {
      const auto& e = static_cast<const IndexExpr&>(expr);
      Value obj = eval_expr(*e.object, env);
      Value idx = eval_expr(*e.index, env);
      return get_index(obj, idx);
    }
  }
  throw JsError("unknown expression kind");
}

Value Interpreter::eval_call(const CallExpr& call, const EnvPtr& env) {
  Value callee;
  Value this_value = Undefined{};
  if (call.callee->kind == ExprKind::kMember) {
    const auto& m = static_cast<const MemberExpr&>(*call.callee);
    this_value = eval_expr(*m.object, env);
    callee = get_member(this_value, m.property);
  } else if (call.callee->kind == ExprKind::kIndex) {
    const auto& ix = static_cast<const IndexExpr&>(*call.callee);
    this_value = eval_expr(*ix.object, env);
    Value idx = eval_expr(*ix.index, env);
    callee = get_index(this_value, idx);
  } else {
    callee = eval_expr(*call.callee, env);
  }
  std::vector<Value> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) args.push_back(eval_expr(*a, env));
  if (!is_callable(callee)) {
    runtime_error("value of type " + std::string(type_of(callee)) +
                      " is not callable",
                  &call);
  }
  return this->call(callee, this_value, std::move(args));
}

Value Interpreter::call(const Value& callee, const Value& this_value,
                        std::vector<Value> args) {
  ++stats_.calls;
  if (const auto* native = std::get_if<NativeFnPtr>(&callee)) {
    return (*native)->fn(*this, this_value, args);
  }
  if (const auto* fn = std::get_if<FunctionPtr>(&callee)) {
    return call_function(*fn, this_value, args);
  }
  throw JsError("value is not callable");
}

Value Interpreter::call_function(const FunctionPtr& fn, const Value& this_value,
                                 std::span<Value> args) {
  if (call_depth_ >= kMaxCallDepth) {
    throw JsError("maximum call depth exceeded");
  }
  ++call_depth_;
  auto scope = make_env(fn->closure);
  for (std::size_t i = 0; i < fn->decl->params.size(); ++i) {
    scope->declare(fn->decl->params[i],
                   i < args.size() ? args[i] : Value(Undefined{}));
  }
  this_stack_.push_back(this_value);
  ProgramPtr saved = std::exchange(current_program_, fn->program);
  Completion c;
  try {
    c = exec_block(*fn->decl->body, scope);
  } catch (...) {
    current_program_ = std::move(saved);
    this_stack_.pop_back();
    --call_depth_;
    throw;
  }
  current_program_ = std::move(saved);
  this_stack_.pop_back();
  --call_depth_;
  if (c.flow == Flow::kBreak || c.flow == Flow::kContinue) {
    throw JsError("break/continue escaped function " + fn->name);
  }
  return c.flow == Flow::kReturn ? std::move(c.value) : Value(Undefined{});
}

// -------------------------------------------------------------------- events

void Interpreter::enqueue_event(DomNodePtr target, std::string type,
                                Value detail) {
  if (!target) throw JsError("dispatchEvent: null target");
  event_queue_.push_back(
      PendingEvent{std::move(target), std::move(type), std::move(detail)});
}

void Interpreter::run_handlers(const PendingEvent& event) {
  ++stats_.events;
  auto event_obj = make_object();
  event_obj->set("type", event.type);
  event_obj->set("target", event.target);
  event_obj->set("detail", event.detail);
  // Copy handler list: handlers may mutate listeners while running.
  std::vector<Value> handlers;
  for (const auto& [type, handler] : event.target->listeners) {
    if (type == event.type) handlers.push_back(handler);
  }
  for (const auto& handler : handlers) {
    call(handler, Value(event.target), {Value(event_obj)});
  }
}

std::size_t Interpreter::run_events() {
  std::size_t ran = 0;
  while (!event_queue_.empty()) {
    PendingEvent event = event_queue_.front();
    if (offload_hook && offload_hook(event)) {
      // Snapshot point: the event stays at the front of the queue so the
      // snapshot writer serializes it (and everything behind it) as the
      // "code to dispatch the event again at the server".
      pending_offload_ = std::move(event);
      return ran;
    }
    event_queue_.pop_front();
    run_handlers(event);
    ++ran;
  }
  return ran;
}

std::optional<PendingEvent> Interpreter::take_pending_offload() {
  auto out = std::move(pending_offload_);
  pending_offload_.reset();
  return out;
}

void Interpreter::push_front_event(PendingEvent event) {
  event_queue_.push_front(std::move(event));
}

// ---------------------------------------------------------------------- host

NativeFnPtr Interpreter::register_native(std::string registry_name,
                                         NativeImpl fn) {
  auto native = std::make_shared<NativeFunction>();
  native->registry_name = registry_name;
  native->fn = std::move(fn);
  natives_[std::move(registry_name)] = native;
  return native;
}

NativeFnPtr Interpreter::native(std::string_view registry_name) const {
  auto it = natives_.find(std::string(registry_name));
  return it == natives_.end() ? nullptr : it->second;
}

void Interpreter::set_global(std::string name, Value value, bool ambient) {
  globals_->declare(name, value);
  if (ambient) {
    for (auto& [n, v] : ambient_globals_) {
      if (n == name) {
        v = std::move(value);
        return;
      }
    }
    ambient_globals_.emplace_back(std::move(name), std::move(value));
  }
}

bool Interpreter::is_ambient_binding(std::string_view name,
                                     const Value& value) const {
  for (const auto& [n, v] : ambient_globals_) {
    if (n == name) return values_equal(v, value);
  }
  return false;
}

}  // namespace offload::jsvm
