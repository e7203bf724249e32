// The MicroJS interpreter — our stand-in for the paper's WebKit runtime.
//
// Language surface (documented deviations from full JS):
//  - `var` is block-scoped (like `let`); no hoisting of vars or functions.
//  - `dispatchEvent` is asynchronous: it enqueues the event, and handlers
//    run from the event loop. This makes every handler boundary a
//    potential snapshot point, which is exactly where the paper captures
//    snapshots ("just before the time-consuming event handler is
//    executed").
//  - Strict equality only (plus null == undefined); no implicit string↔
//    number coercion except `+` with a string operand.
//  - No prototypes, `new`, exceptions, or getters/setters.
//
// Built-ins installed by the constructor: console.{log,error},
// Math.{floor,ceil,round,sqrt,abs,max,min,pow,exp,log,random}, document
// (getElementById/createElement/body), Float32Array(n|array), plus the
// snapshot-restore intrinsics (__closure, __makeEnv, __envSlot, __f32,
// __f32b64, __native, __dispatchPending).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/jsvm/ast.h"
#include "src/jsvm/dom.h"
#include "src/jsvm/env.h"
#include "src/jsvm/value.h"
#include "src/util/rng.h"

namespace offload::jsvm {

/// An event sitting in the queue, waiting for its handlers to run.
struct PendingEvent {
  DomNodePtr target;
  std::string type;
  Value detail;
};

/// One realm: a global scope, a document and an event queue, plus the
/// Heap that owns every object, array and environment the realm makes.
/// Destroying the interpreter frees all of them, cycles included; a value
/// that outlives its realm keeps its identity but reads as empty.
class Interpreter {
 public:
  Interpreter();

  // ------------------------------------------------------------ programs

  /// Parse and execute a program in the global scope. Returns the value of
  /// the last expression statement (convenient for tests).
  Value eval_program(std::string_view source, std::string origin = "app");
  Value eval_parsed(const ProgramPtr& program);

  /// Call a MicroJS or native function from C++.
  Value call(const Value& callee, const Value& this_value,
             std::vector<Value> args);

  // -------------------------------------------------------------- events

  void enqueue_event(DomNodePtr target, std::string type,
                     Value detail = Undefined{});

  /// Drain the event queue, invoking listeners. If `offload_hook` returns
  /// true for an event, the loop stops *before* running its handlers and
  /// the event becomes the pending-offload event (retrievable below) —
  /// this is the paper's snapshot point. Returns events whose handlers ran.
  std::size_t run_events();

  std::function<bool(const PendingEvent&)> offload_hook;
  bool has_pending_events() const { return !event_queue_.empty(); }
  const std::deque<PendingEvent>& event_queue() const { return event_queue_; }
  /// The event the hook stopped on. It is still at the front of the queue;
  /// this call only clears the "stopped" flag.
  std::optional<PendingEvent> take_pending_offload();
  /// Put an event at the *front* of the queue (used when a declined
  /// offload should still run locally).
  void push_front_event(PendingEvent event);
  /// Pop the front event without running it (local-fallback path runs it
  /// via run_events after clearing the hook).
  void pop_front_event() {
    if (!event_queue_.empty()) event_queue_.pop_front();
  }

  // ---------------------------------------------------------------- host

  Document& document() { return document_; }
  const EnvPtr& globals() const { return globals_; }

  /// Cells owned by this realm (see Heap). Natives and hosts make their
  /// objects, arrays and environments here, never with make_shared.
  ObjectPtr make_object() { return heap_.make<Object>(); }
  ArrayPtr make_array() { return heap_.make<ArrayObj>(); }
  EnvPtr make_env(EnvPtr parent) {
    return heap_.make<Environment>(std::move(parent));
  }

  using NativeImpl = std::function<Value(Interpreter&, const Value&,
                                         std::span<Value>)>;
  /// Register (or replace) a native in the registry; snapshots reference
  /// it as __native("<registry_name>").
  NativeFnPtr register_native(std::string registry_name, NativeImpl fn);
  /// Look up a registered native; nullptr if unknown.
  NativeFnPtr native(std::string_view registry_name) const;

  /// Define a global visible to programs. If `ambient`, the binding is
  /// part of the runtime (present in any fresh realm) and the snapshot
  /// writer skips it unless the app rebinds the name.
  void set_global(std::string name, Value value, bool ambient = true);
  /// True if `name` is ambient and still bound to its original value.
  bool is_ambient_binding(std::string_view name, const Value& value) const;

  /// Member access, exposed for host objects and the snapshot writer.
  Value get_member(const Value& object, std::string_view name);
  void set_member(const Value& object, std::string_view name, Value value);

  // --------------------------------------------------------------- stats

  struct Stats {
    std::uint64_t statements = 0;
    std::uint64_t calls = 0;
    std::uint64_t events = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Everything console.log/error printed, one entry per call.
  const std::vector<std::string>& console_output() const {
    return console_output_;
  }
  void append_console_output(std::string line) {
    console_output_.push_back(std::move(line));
  }

  util::Pcg32& rng() { return rng_; }

 private:
  enum class Flow : std::uint8_t { kNormal, kReturn, kBreak, kContinue };
  struct Completion {
    Flow flow = Flow::kNormal;
    Value value;
  };

  Completion exec_stmt(const Stmt& stmt, const EnvPtr& env);
  Completion exec_block(const BlockStmt& block, const EnvPtr& env);
  Value eval_expr(const Expr& expr, const EnvPtr& env);
  Value eval_call(const CallExpr& call, const EnvPtr& env);
  Value call_function(const FunctionPtr& fn, const Value& this_value,
                      std::span<Value> args);
  Value get_index(const Value& object, const Value& index);
  void set_index(const Value& object, const Value& index, Value value);
  Value make_function(const FunctionExpr& decl, const EnvPtr& env);
  void run_handlers(const PendingEvent& event);
  void install_builtins();

  [[noreturn]] void runtime_error(const std::string& message,
                                  const Expr* where = nullptr) const;

  Document document_;
  EnvPtr globals_;
  std::deque<PendingEvent> event_queue_;
  std::optional<PendingEvent> pending_offload_;
  std::unordered_map<std::string, NativeFnPtr> natives_;
  std::vector<std::pair<std::string, Value>> ambient_globals_;
  std::vector<Value> this_stack_;
  ProgramPtr current_program_;  ///< program being evaluated (for closures)
  int call_depth_ = 0;
  Stats stats_;
  std::vector<std::string> console_output_;
  util::Pcg32 rng_{0xbadc0ffee0ddf00dULL};
  /// Declared last, so destroyed first: every cell is emptied before the
  /// members above drop their references into the heap.
  Heap heap_;
};

}  // namespace offload::jsvm
