// Unit tests for the MicroJS interpreter: expressions, statements, scoping,
// closures, built-ins, DOM, and the event loop.
#include "src/jsvm/interpreter.h"

#include <gtest/gtest.h>

#include "src/jsvm/lexer.h"

namespace offload::jsvm {
namespace {

double eval_number(const std::string& source) {
  Interpreter interp;
  Value v = interp.eval_program(source);
  return to_number(v);
}

std::string eval_string(const std::string& source) {
  Interpreter interp;
  Value v = interp.eval_program(source);
  return to_display_string(v);
}

TEST(InterpreterExpr, Arithmetic) {
  EXPECT_EQ(eval_number("1 + 2 * 3;"), 7);
  EXPECT_EQ(eval_number("(1 + 2) * 3;"), 9);
  EXPECT_EQ(eval_number("10 / 4;"), 2.5);
  EXPECT_EQ(eval_number("10 % 3;"), 1);
  EXPECT_EQ(eval_number("-3 + 1;"), -2);
  EXPECT_EQ(eval_number("2 * -3;"), -6);
}

TEST(InterpreterExpr, Comparisons) {
  EXPECT_EQ(eval_string("1 < 2;"), "true");
  EXPECT_EQ(eval_string("2 <= 2;"), "true");
  EXPECT_EQ(eval_string("3 > 4;"), "false");
  EXPECT_EQ(eval_string("'abc' < 'abd';"), "true");
  EXPECT_EQ(eval_string("1 == 1;"), "true");
  EXPECT_EQ(eval_string("1 != 2;"), "true");
  EXPECT_EQ(eval_string("'a' == 'a';"), "true");
  EXPECT_EQ(eval_string("null == undefined;"), "true");
}

TEST(InterpreterExpr, StringConcat) {
  EXPECT_EQ(eval_string("'a' + 'b';"), "ab");
  EXPECT_EQ(eval_string("'n=' + 42;"), "n=42");
  EXPECT_EQ(eval_string("1.5 + 'x';"), "1.5x");
}

TEST(InterpreterExpr, LogicalShortCircuit) {
  EXPECT_EQ(eval_number("var n = 0; function f() { n = n + 1; return true; } "
                        "false && f(); n;"),
            0);
  EXPECT_EQ(eval_number("var n = 0; function f() { n = n + 1; return true; } "
                        "true || f(); n;"),
            0);
  EXPECT_EQ(eval_string("0 || 'fallback';"), "fallback");
  EXPECT_EQ(eval_string("1 && 'second';"), "second");
}

TEST(InterpreterExpr, Ternary) {
  EXPECT_EQ(eval_string("1 < 2 ? 'yes' : 'no';"), "yes");
  EXPECT_EQ(eval_string("1 > 2 ? 'yes' : 'no';"), "no");
}

TEST(InterpreterExpr, TypeofOperator) {
  EXPECT_EQ(eval_string("typeof 1;"), "number");
  EXPECT_EQ(eval_string("typeof 'a';"), "string");
  EXPECT_EQ(eval_string("typeof true;"), "boolean");
  EXPECT_EQ(eval_string("typeof undefined;"), "undefined");
  EXPECT_EQ(eval_string("typeof {};"), "object");
  EXPECT_EQ(eval_string("typeof function() {};"), "function");
  EXPECT_EQ(eval_string("typeof notDefinedAnywhere;"), "undefined");
}

TEST(InterpreterExpr, UpdateOperators) {
  EXPECT_EQ(eval_number("var i = 5; i++; i;"), 6);
  EXPECT_EQ(eval_number("var i = 5; i++;"), 5);   // postfix yields old
  EXPECT_EQ(eval_number("var i = 5; ++i;"), 6);   // prefix yields new
  EXPECT_EQ(eval_number("var i = 5; i--; i;"), 4);
  EXPECT_EQ(eval_number("var o = {n: 1}; o.n++; o.n;"), 2);
  EXPECT_EQ(eval_number("var a = [1]; a[0]++; a[0];"), 2);
}

TEST(InterpreterExpr, CompoundAssignment) {
  EXPECT_EQ(eval_number("var x = 10; x += 5; x;"), 15);
  EXPECT_EQ(eval_number("var x = 10; x -= 4; x;"), 6);
  EXPECT_EQ(eval_number("var x = 10; x *= 2; x;"), 20);
  EXPECT_EQ(eval_number("var x = 10; x /= 4; x;"), 2.5);
  EXPECT_EQ(eval_string("var s = 'a'; s += 'b'; s;"), "ab");
  EXPECT_EQ(eval_number("var o = {n: 1}; o.n += 9; o.n;"), 10);
}

TEST(InterpreterStmt, WhileLoop) {
  EXPECT_EQ(eval_number("var s = 0; var i = 0; "
                        "while (i < 10) { s += i; i++; } s;"),
            45);
}

TEST(InterpreterStmt, ForLoop) {
  EXPECT_EQ(eval_number("var s = 0; for (var i = 0; i < 5; i++) { s += i; } "
                        "s;"),
            10);
}

TEST(InterpreterStmt, BreakContinue) {
  EXPECT_EQ(eval_number("var s = 0; for (var i = 0; i < 100; i++) { "
                        "if (i == 5) { break; } s += i; } s;"),
            10);
  EXPECT_EQ(eval_number("var s = 0; for (var i = 0; i < 5; i++) { "
                        "if (i % 2 == 0) { continue; } s += i; } s;"),
            4);
}

TEST(InterpreterStmt, NestedLoopBreak) {
  EXPECT_EQ(eval_number("var n = 0; for (var i = 0; i < 3; i++) { "
                        "for (var j = 0; j < 10; j++) { if (j == 2) { break; } "
                        "n++; } } n;"),
            6);
}

TEST(InterpreterStmt, BlockScoping) {
  // MicroJS `var` is block-scoped (documented deviation).
  Interpreter interp;
  interp.eval_program("var x = 1; { var x = 2; } var y = x;");
  EXPECT_EQ(to_number(*interp.globals()->find("y")), 1);
}

TEST(InterpreterFunc, BasicCallAndReturn) {
  EXPECT_EQ(eval_number("function add(a, b) { return a + b; } add(2, 3);"), 5);
  EXPECT_EQ(eval_string("function f() {} f();"), "undefined");
  EXPECT_EQ(eval_string("function f(a) { return a; } f();"), "undefined");
}

TEST(InterpreterFunc, Recursion) {
  EXPECT_EQ(eval_number("function fib(n) { if (n < 2) { return n; } "
                        "return fib(n - 1) + fib(n - 2); } fib(12);"),
            144);
}

TEST(InterpreterFunc, RecursionDepthLimit) {
  Interpreter interp;
  EXPECT_THROW(
      interp.eval_program("function f() { return f(); } f();"),
      JsError);
}

TEST(InterpreterFunc, ClosureCounter) {
  EXPECT_EQ(eval_number(
                "function makeCounter() { var n = 0; "
                "return function() { n = n + 1; return n; }; } "
                "var c = makeCounter(); c(); c(); c();"),
            3);
}

TEST(InterpreterFunc, ClosuresShareEnvironment) {
  EXPECT_EQ(eval_number(
                "function make() { var n = 0; "
                "return { inc: function() { n = n + 1; }, "
                "get: function() { return n; } }; } "
                "var p = make(); p.inc(); p.inc(); p.get();"),
            2);
}

TEST(InterpreterFunc, FunctionExpressionValue) {
  EXPECT_EQ(eval_number("var f = function(x) { return x * 2; }; f(21);"), 42);
}

TEST(InterpreterFunc, ThisInMethodCall) {
  EXPECT_EQ(eval_number(
                "var obj = {n: 41, bump: function() { return this.n + 1; }}; "
                "obj.bump();"),
            42);
}

TEST(InterpreterArray, LiteralAndIndex) {
  EXPECT_EQ(eval_number("var a = [10, 20, 30]; a[1];"), 20);
  EXPECT_EQ(eval_number("var a = [1, 2]; a.length;"), 2);
  EXPECT_EQ(eval_number("var a = []; a[0] = 7; a[0];"), 7);  // grow by one
}

TEST(InterpreterArray, OutOfRangeRead) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_program("var a = [1]; a[5];"), JsError);
}

TEST(InterpreterArray, Methods) {
  EXPECT_EQ(eval_number("var a = [1]; a.push(2, 3); a.length;"), 3);
  EXPECT_EQ(eval_number("var a = [1, 2, 3]; a.pop();"), 3);
  EXPECT_EQ(eval_number("var a = [5, 6, 7]; a.indexOf(6);"), 1);
  EXPECT_EQ(eval_number("var a = [5, 6]; a.indexOf(9);"), -1);
  EXPECT_EQ(eval_string("[1, 2, 3].join('-');"), "1-2-3");
  EXPECT_EQ(eval_string("[1, 2, 3, 4].slice(1, 3).join(',');"), "2,3");
  EXPECT_EQ(eval_string("[1, 2, 3, 4].slice(-2).join(',');"), "3,4");
}

TEST(InterpreterObject, NestedAndKeys) {
  EXPECT_EQ(eval_number("var o = {a: {b: {c: 9}}}; o.a.b.c;"), 9);
  EXPECT_EQ(eval_number("var o = {'str key': 4}; o['str key'];"), 4);
  EXPECT_EQ(eval_string("var o = {}; o.missing;"), "undefined");
}

TEST(InterpreterObject, LongChainTearsDown) {
  // 2*10^5 links, alternating object and array: freeing it one nested
  // destructor per link would overflow the stack.
  auto interp = std::make_unique<Interpreter>();
  interp->eval_program(
      "var head = null; "
      "for (var i = 0; i < 100000; i++) { head = {next: [head]}; }");
  interp.reset();
}

TEST(InterpreterString, Methods) {
  EXPECT_EQ(eval_number("'hello'.length;"), 5);
  EXPECT_EQ(eval_string("'hello'.charAt(1);"), "e");
  EXPECT_EQ(eval_number("'hello'.indexOf('llo');"), 2);
  EXPECT_EQ(eval_string("'hello'.slice(1, 3);"), "el");
  EXPECT_EQ(eval_string("'a,b,c'.split(',').join('|');"), "a|b|c");
  EXPECT_EQ(eval_string("'aBc'.toUpperCase();"), "ABC");
  EXPECT_EQ(eval_string("'aBc'.toLowerCase();"), "abc");
  EXPECT_EQ(eval_string("'abc'[1];"), "b");
}

TEST(InterpreterBuiltin, Math) {
  EXPECT_EQ(eval_number("Math.floor(2.7);"), 2);
  EXPECT_EQ(eval_number("Math.ceil(2.1);"), 3);
  EXPECT_EQ(eval_number("Math.round(2.5);"), 3);
  EXPECT_EQ(eval_number("Math.abs(-4);"), 4);
  EXPECT_EQ(eval_number("Math.sqrt(81);"), 9);
  EXPECT_EQ(eval_number("Math.max(1, 9, 4);"), 9);
  EXPECT_EQ(eval_number("Math.min(3, -2, 8);"), -2);
  EXPECT_EQ(eval_number("Math.pow(2, 10);"), 1024);
}

TEST(InterpreterBuiltin, MathRandomDeterministic) {
  Interpreter a;
  Interpreter b;
  Value va = a.eval_program("Math.random();");
  Value vb = b.eval_program("Math.random();");
  EXPECT_EQ(to_number(va), to_number(vb));
  double r = to_number(va);
  EXPECT_GE(r, 0.0);
  EXPECT_LT(r, 1.0);
}

TEST(InterpreterBuiltin, ConsoleCapture) {
  Interpreter interp;
  interp.eval_program("console.log('hello', 1 + 1);");
  ASSERT_EQ(interp.console_output().size(), 1u);
  EXPECT_EQ(interp.console_output()[0], "hello 2");
}

TEST(InterpreterBuiltin, Float32Array) {
  EXPECT_EQ(eval_number("var t = Float32Array(4); t.length;"), 4);
  EXPECT_EQ(eval_number("var t = Float32Array(4); t[2];"), 0);
  EXPECT_EQ(eval_number("var t = Float32Array([1.5, 2.5]); t[1];"), 2.5);
  EXPECT_EQ(eval_number("var t = Float32Array(2); t[0] = 3.25; t[0];"), 3.25);
}

TEST(InterpreterDom, CreateAppendFind) {
  Interpreter interp;
  interp.eval_program(
      "var div = document.createElement('div'); div.id = 'box'; "
      "document.body.appendChild(div); "
      "var found = document.getElementById('box'); "
      "found.textContent = 'hi';");
  DomNodePtr node = interp.document().get_element_by_id("box");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->text, "hi");
  EXPECT_EQ(node->tag, "div");
}

TEST(InterpreterDom, Attributes) {
  Interpreter interp;
  interp.eval_program(
      "var d = document.createElement('img'); "
      "d.setAttribute('src', 'cat.png'); "
      "var v = d.getAttribute('src'); var miss = d.getAttribute('alt');");
  EXPECT_EQ(to_display_string(*interp.globals()->find("v")), "cat.png");
  EXPECT_TRUE(is_null(*interp.globals()->find("miss")));
}

TEST(InterpreterDom, EventDispatchIsAsync) {
  Interpreter interp;
  interp.eval_program(
      "var log = []; "
      "var btn = document.createElement('button'); "
      "btn.addEventListener('click', function(e) { log.push(e.type); }); "
      "btn.dispatchEvent('click'); "
      "log.push('sync');");
  // Handler has not run yet.
  auto log = std::get<ArrayPtr>(*interp.globals()->find("log"));
  ASSERT_EQ(log->elements.size(), 1u);
  EXPECT_EQ(to_display_string(log->elements[0]), "sync");
  EXPECT_EQ(interp.run_events(), 1u);
  ASSERT_EQ(log->elements.size(), 2u);
  EXPECT_EQ(to_display_string(log->elements[1]), "click");
}

TEST(InterpreterDom, EventObjectFields) {
  Interpreter interp;
  interp.eval_program(
      "var seen = {}; "
      "var btn = document.createElement('button'); btn.id = 'b1'; "
      "btn.addEventListener('go', function(e) { "
      "  seen.type = e.type; seen.id = e.target.id; seen.detail = e.detail; "
      "  seen.self = this.id; }); "
      "btn.dispatchEvent('go', 42);");
  interp.run_events();
  auto seen = std::get<ObjectPtr>(*interp.globals()->find("seen"));
  EXPECT_EQ(to_display_string(seen->get("type")), "go");
  EXPECT_EQ(to_display_string(seen->get("id")), "b1");
  EXPECT_EQ(to_number(seen->get("detail")), 42);
  EXPECT_EQ(to_display_string(seen->get("self")), "b1");
}

TEST(InterpreterDom, MultipleListenersRunInOrder) {
  Interpreter interp;
  interp.eval_program(
      "var log = []; var b = document.createElement('b'); "
      "b.addEventListener('x', function() { log.push(1); }); "
      "b.addEventListener('x', function() { log.push(2); }); "
      "b.addEventListener('y', function() { log.push(3); }); "
      "b.dispatchEvent('x');");
  interp.run_events();
  auto log = std::get<ArrayPtr>(*interp.globals()->find("log"));
  ASSERT_EQ(log->elements.size(), 2u);
  EXPECT_EQ(to_number(log->elements[0]), 1);
  EXPECT_EQ(to_number(log->elements[1]), 2);
}

TEST(InterpreterDom, RemoveEventListener) {
  Interpreter interp;
  interp.eval_program(
      "var n = 0; var f = function() { n++; }; "
      "var b = document.createElement('b'); "
      "b.addEventListener('x', f); b.removeEventListener('x', f); "
      "b.dispatchEvent('x');");
  interp.run_events();
  EXPECT_EQ(to_number(*interp.globals()->find("n")), 0);
}

TEST(InterpreterDom, ChainedEvents) {
  // front() dispatches a custom event that triggers rear() — the paper's
  // partial-inference control flow (Fig. 5).
  Interpreter interp;
  interp.eval_program(
      "var phase = 'init'; "
      "var btn = document.createElement('button'); "
      "btn.addEventListener('click', function() { "
      "  phase = 'front'; btn.dispatchEvent('front_complete'); }); "
      "btn.addEventListener('front_complete', function() { "
      "  phase = 'rear'; }); "
      "btn.dispatchEvent('click');");
  EXPECT_EQ(interp.run_events(), 2u);
  EXPECT_EQ(to_display_string(*interp.globals()->find("phase")), "rear");
}

TEST(InterpreterDom, OffloadHookStopsBeforeHandler) {
  Interpreter interp;
  interp.eval_program(
      "var ran = false; "
      "var btn = document.createElement('button'); "
      "btn.addEventListener('infer', function() { ran = true; }); "
      "btn.dispatchEvent('infer');");
  interp.offload_hook = [](const PendingEvent& ev) {
    return ev.type == "infer";
  };
  EXPECT_EQ(interp.run_events(), 0u);
  EXPECT_EQ(to_display_string(*interp.globals()->find("ran")), "false");
  auto pending = interp.take_pending_offload();
  ASSERT_TRUE(pending.has_value());
  EXPECT_EQ(pending->type, "infer");
  // The event is still at the queue front; clearing the hook lets it run.
  interp.offload_hook = nullptr;
  EXPECT_EQ(interp.run_events(), 1u);
  EXPECT_EQ(to_display_string(*interp.globals()->find("ran")), "true");
}

TEST(InterpreterError, UndefinedVariable) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_program("nope + 1;"), JsError);
}

TEST(InterpreterError, CallingNonFunction) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_program("var x = 3; x();"), JsError);
}

TEST(InterpreterError, ImplicitGlobalOnlyForPlainAssign) {
  Interpreter interp;
  interp.eval_program("newGlobal = 9;");
  EXPECT_EQ(to_number(*interp.globals()->find("newGlobal")), 9);
  EXPECT_THROW(interp.eval_program("neverSeen += 1;"), JsError);
}

TEST(InterpreterError, ParseErrors) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_program("var = 3;"), ParseError);
  EXPECT_THROW(interp.eval_program("if (1 {"), ParseError);
  EXPECT_THROW(interp.eval_program("var x = 'unterminated;"), ParseError);
  EXPECT_THROW(interp.eval_program("var x = 1 + ;"), ParseError);
  EXPECT_THROW(interp.eval_program("1 & 2;"), ParseError);
}

TEST(InterpreterError, NumberCoercionIsStrict) {
  Interpreter interp;
  EXPECT_THROW(interp.eval_program("'a' - 1;"), JsError);
  EXPECT_THROW(interp.eval_program("({}) * 2;"), JsError);
}

TEST(InterpreterMisc, Comments) {
  EXPECT_EQ(eval_number("// line comment\nvar x = 1; /* block */ x + 1;"), 2);
}

TEST(InterpreterMisc, StringEscapes) {
  EXPECT_EQ(eval_string("'a\\nb';"), "a\nb");
  EXPECT_EQ(eval_string("\"q\\\"q\";"), "q\"q");
  EXPECT_EQ(eval_string("'tab\\t.';"), "tab\t.");
  EXPECT_EQ(eval_string("'\\x41';"), "A");
}

TEST(InterpreterMisc, StatsCount) {
  Interpreter interp;
  interp.eval_program("function f() { return 1; } f(); f();");
  EXPECT_GE(interp.stats().calls, 2u);
  EXPECT_GE(interp.stats().statements, 3u);
}

// Environments both below and above the slot count at which name lookup
// moves from a linear scan to the name index.
class EnvironmentTest : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }

  /// Declares `<prefix>0` .. `<prefix>{n-1}` bound to 0 .. n-1.
  void fill(Environment& env, const std::string& prefix) const {
    for (int i = 0; i < n(); ++i) {
      env.declare(prefix + std::to_string(i), Value(static_cast<double>(i)));
    }
  }

  std::string last(const std::string& prefix) const {
    return prefix + std::to_string(n() - 1);
  }
};

TEST_P(EnvironmentTest, SlotsStayInDeclarationOrder) {
  Environment env;
  fill(env, "v");
  ASSERT_EQ(env.slots().size(), static_cast<std::size_t>(n()));
  for (int i = 0; i < n(); ++i) {
    EXPECT_EQ(env.slots()[i].first, "v" + std::to_string(i));
    EXPECT_EQ(env.slots()[i].second, Value(static_cast<double>(i)));
  }
}

TEST_P(EnvironmentTest, RedeclareUpdatesInPlace) {
  Environment env;
  fill(env, "v");
  env.declare("v0", Value(std::string("first")));
  env.declare(last("v"), Value(std::string("last")));
  ASSERT_EQ(env.slots().size(), static_cast<std::size_t>(n()));
  EXPECT_EQ(env.slots().front().first, "v0");
  EXPECT_EQ(env.slots().front().second, Value(std::string("first")));
  EXPECT_EQ(env.slots().back().first, last("v"));
  EXPECT_EQ(*env.find_local(last("v")), Value(std::string("last")));
  EXPECT_EQ(env.find_local("v"), nullptr);
}

TEST_P(EnvironmentTest, ChildDeclarationShadowsParent) {
  auto parent = std::make_shared<Environment>();
  fill(*parent, "v");
  Environment child(parent);
  fill(child, "c");
  child.declare("v0", Value(std::string("child")));
  EXPECT_EQ(*child.find("v0"), Value(std::string("child")));
  EXPECT_EQ(*parent->find("v0"), Value(0.0));
  EXPECT_EQ(*child.find(last("v")), Value(static_cast<double>(n() - 1)));
  EXPECT_EQ(child.find_local(last("v")), nullptr);
  EXPECT_EQ(parent->find(last("c")), nullptr);
}

TEST_P(EnvironmentTest, AssignReachesBindingThroughParentChain) {
  auto grandparent = std::make_shared<Environment>();
  fill(*grandparent, "g");
  auto parent = std::make_shared<Environment>(grandparent);
  fill(*parent, "p");
  Environment child(parent);
  fill(child, "c");
  EXPECT_TRUE(child.assign(last("g"), Value(std::string("set"))));
  EXPECT_EQ(*grandparent->find_local(last("g")), Value(std::string("set")));
  EXPECT_EQ(child.find_local(last("g")), nullptr);
  EXPECT_EQ(parent->find_local(last("g")), nullptr);
  EXPECT_FALSE(child.assign("unbound", Value(1.0)));
  EXPECT_EQ(child.find("unbound"), nullptr);
}

TEST_P(EnvironmentTest, AssignToUnboundNameIsImplicitGlobal) {
  std::string src = "function f() { ";
  for (int i = 0; i < n(); ++i) {
    src += "var v" + std::to_string(i) + " = " + std::to_string(i) + "; ";
  }
  src += "fresh = " + last("v") + "; } f();";
  Interpreter interp;
  interp.eval_program(src);
  ASSERT_NE(interp.globals()->find("fresh"), nullptr);
  EXPECT_EQ(to_number(*interp.globals()->find("fresh")), n() - 1);
  EXPECT_EQ(interp.globals()->find("v0"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnvironmentTest, ::testing::Values(3, 40));

}  // namespace
}  // namespace offload::jsvm
