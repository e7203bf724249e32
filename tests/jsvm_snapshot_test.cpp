// Tests for the snapshot engine: capture the execution state of one realm,
// restore it into a fresh realm, and verify the state — heap graph shape,
// closures, DOM, queued events — survives the round trip. This is the
// correctness core of the paper's mechanism.
//
// The writer goldens pin the exact bytes of a full and a differential
// snapshot of one fixed realm. Regenerate them after an intentional change
// to the snapshot format with
//   OFFLOAD_UPDATE_GOLDEN=1 ctest -R SnapshotGolden
#include "src/jsvm/snapshot.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/jsvm/fingerprint.h"
#include "src/jsvm/interpreter.h"

#ifndef SNAPSHOT_GOLDEN_DIR
#error "SNAPSHOT_GOLDEN_DIR must point at the golden directory"
#endif

namespace offload::jsvm {
namespace {

/// Run `source` in a fresh realm, snapshot it, restore into another fresh
/// realm, and return the restored realm.
std::unique_ptr<Interpreter> round_trip(const std::string& source,
                                        SnapshotOptions options = {},
                                        SnapshotResult* out = nullptr) {
  Interpreter a;
  a.eval_program(source);
  a.run_events();
  SnapshotResult snap = capture_snapshot(a, options);
  auto b = std::make_unique<Interpreter>();
  restore_snapshot(*b, snap.program);
  if (out) *out = std::move(snap);
  return b;
}

double global_number(Interpreter& interp, const std::string& name) {
  Value* v = interp.globals()->find(name);
  EXPECT_NE(v, nullptr) << "global " << name << " missing";
  return v ? to_number(*v) : -1;
}

std::string global_string(Interpreter& interp, const std::string& name) {
  Value* v = interp.globals()->find(name);
  EXPECT_NE(v, nullptr) << "global " << name << " missing";
  return v ? to_display_string(*v) : "<missing>";
}

TEST(Snapshot, EmptyRealmIsTiny) {
  Interpreter interp;
  SnapshotResult snap = capture_snapshot(interp);
  // Ambient globals (console, Math, document, intrinsics) are skipped.
  EXPECT_EQ(snap.stats.globals, 0u);
  EXPECT_LT(snap.stats.total_bytes, 200u);
}

TEST(Snapshot, Primitives) {
  auto b = round_trip(
      "var n = 42.5; var s = 'hello \"world\"\\n'; var t = true; "
      "var f = false; var u = undefined; var z = null; var neg = -7;");
  EXPECT_EQ(global_number(*b, "n"), 42.5);
  EXPECT_EQ(global_string(*b, "s"), "hello \"world\"\n");
  EXPECT_EQ(global_string(*b, "t"), "true");
  EXPECT_EQ(global_string(*b, "f"), "false");
  EXPECT_TRUE(is_undefined(*b->globals()->find("u")));
  EXPECT_TRUE(is_null(*b->globals()->find("z")));
  EXPECT_EQ(global_number(*b, "neg"), -7);
}

TEST(Snapshot, NumbersRoundTripExactly) {
  auto b = round_trip(
      "var tiny = 0.1; var big = 123456789.123456; var exp = 1.5e300;");
  EXPECT_EQ(global_number(*b, "tiny"), 0.1);
  EXPECT_EQ(global_number(*b, "big"), 123456789.123456);
  EXPECT_EQ(global_number(*b, "exp"), 1.5e300);
}

TEST(Snapshot, PaperExampleObject) {
  // Fig. 2/3's example: obj = {x:1, y:2} appears in the snapshot.
  SnapshotResult snap;
  auto b = round_trip("var obj = {x: 1, y: 2};", {}, &snap);
  auto obj = std::get<ObjectPtr>(*b->globals()->find("obj"));
  EXPECT_EQ(to_number(obj->get("x")), 1);
  EXPECT_EQ(to_number(obj->get("y")), 2);
  EXPECT_NE(snap.program.find("obj"), std::string::npos);
}

TEST(Snapshot, NestedObjectsAndArrays) {
  auto b = round_trip(
      "var data = {list: [1, [2, 3], {deep: 'yes'}], meta: {n: 2}};");
  EXPECT_EQ(b->eval_program("data.list[1][1];"), Value(3.0));
  EXPECT_EQ(b->eval_program("data.list[2].deep;"), Value(std::string("yes")));
  EXPECT_EQ(b->eval_program("data.meta.n;"), Value(2.0));
}

TEST(Snapshot, SharedReferenceIdentityPreserved) {
  auto b = round_trip(
      "var shared = {n: 1}; var a = {ref: shared}; var c = {ref: shared};");
  // Mutating through one reference must be visible through the other.
  b->eval_program("a.ref.n = 99;");
  EXPECT_EQ(b->eval_program("c.ref.n;"), Value(99.0));
}

TEST(Snapshot, CyclicObjectGraph) {
  auto b = round_trip(
      "var a = {name: 'a'}; var c = {name: 'c'}; a.next = c; c.prev = a; "
      "a.self = a;");
  EXPECT_EQ(b->eval_program("a.next.prev.name;"), Value(std::string("a")));
  EXPECT_EQ(b->eval_program("a.self.self.name;"), Value(std::string("a")));
}

TEST(Snapshot, ArrayWithHoles) {
  auto b = round_trip("var a = [1, undefined, 'three'];");
  EXPECT_EQ(b->eval_program("a.length;"), Value(3.0));
  EXPECT_TRUE(is_undefined(b->eval_program("a[1];")));
}

TEST(Snapshot, GlobalFunctionSurvivesAndRuns) {
  auto b = round_trip("function add(a, b) { return a + b; }");
  EXPECT_EQ(b->eval_program("add(20, 22);"), Value(42.0));
}

TEST(Snapshot, ClosureStatePreserved) {
  auto b = round_trip(
      "function makeCounter() { var n = 0; "
      "return function() { n = n + 1; return n; }; } "
      "var counter = makeCounter(); counter(); counter();");
  // Counter was at 2 when snapshotted; must continue at 3.
  EXPECT_EQ(b->eval_program("counter();"), Value(3.0));
}

TEST(Snapshot, ClosureEndingInNumberArrayRecapturesIdentically) {
  // A packed number array is the last literal of each function body, so
  // the function spans sliced into the snapshot must end exactly at '}'.
  SnapshotResult first;
  auto b = round_trip(
      "function f() { return [1, -2]; }\n"
      "var g = function() { return [3.5, - 4, 1e-7]; };\n"
      "function outer() { var k = [0]; return function() { return k; }; }\n"
      "var h = outer();",
      {}, &first);
  EXPECT_EQ(b->eval_program("f()[1] + g()[1];"), Value(-6.0));
  EXPECT_EQ(b->eval_program("h()[0];"), Value(0.0));
  SnapshotResult second = capture_snapshot(*b);
  EXPECT_EQ(second.program, first.program);
  Interpreter c;
  restore_snapshot(c, second.program);
  EXPECT_EQ(capture_snapshot(c).program, first.program);
}

TEST(Snapshot, TwoClosuresShareOneEnvironment) {
  auto b = round_trip(
      "function make() { var n = 10; return { "
      "inc: function() { n = n + 1; }, get: function() { return n; } }; } "
      "var pair = make(); pair.inc();");
  EXPECT_EQ(b->eval_program("pair.get();"), Value(11.0));
  b->eval_program("pair.inc();");
  EXPECT_EQ(b->eval_program("pair.get();"), Value(12.0));
}

TEST(Snapshot, NestedClosureChain) {
  auto b = round_trip(
      "function outer(a) { return function(bv) { "
      "return function(c) { return a + bv + c; }; }; } "
      "var f = outer(100)(20);");
  EXPECT_EQ(b->eval_program("f(3);"), Value(123.0));
}

TEST(Snapshot, SeparateClosureEnvironmentsStaySeparate) {
  auto b = round_trip(
      "function makeCounter() { var n = 0; "
      "return function() { n = n + 1; return n; }; } "
      "var c1 = makeCounter(); var c2 = makeCounter(); c1(); c1(); c2();");
  EXPECT_EQ(b->eval_program("c1();"), Value(3.0));
  EXPECT_EQ(b->eval_program("c2();"), Value(2.0));
}

TEST(Snapshot, NativeFunctionReference) {
  auto b = round_trip("var myLog = console.log; var flr = Math.floor;");
  EXPECT_EQ(b->eval_program("flr(9.7);"), Value(9.0));
  b->eval_program("myLog('restored native works');");
  ASSERT_EQ(b->console_output().size(), 1u);
}

TEST(Snapshot, TypedArrayExactBits) {
  auto b = round_trip(
      "var t = Float32Array(3); t[0] = 0.1; t[1] = -1234.5678; t[2] = 3e-8;");
  auto t = std::get<TypedArrayPtr>(*b->globals()->find("t"));
  EXPECT_EQ(t->data[0], 0.1f);
  EXPECT_EQ(t->data[1], -1234.5678f);
  EXPECT_EQ(t->data[2], 3e-8f);
}

TEST(Snapshot, TypedArrayBase64Mode) {
  SnapshotOptions opts;
  opts.base64_typed_arrays = true;
  SnapshotResult text_snap;
  SnapshotResult b64_snap;
  const std::string src =
      "var t = Float32Array(256); "
      "for (var i = 0; i < 256; i++) { t[i] = i * 0.3125; }";
  auto b_text = round_trip(src, {}, &text_snap);
  auto b_b64 = round_trip(src, opts, &b64_snap);
  auto ta = std::get<TypedArrayPtr>(*b_text->globals()->find("t"));
  auto tb = std::get<TypedArrayPtr>(*b_b64->globals()->find("t"));
  ASSERT_EQ(ta->data.size(), tb->data.size());
  for (std::size_t i = 0; i < ta->data.size(); ++i) {
    EXPECT_EQ(ta->data[i], tb->data[i]);
  }
  // Base64 is more compact than decimal text for dense float data.
  EXPECT_LT(b64_snap.stats.typed_array_bytes,
            text_snap.stats.typed_array_bytes);
}

TEST(Snapshot, DomTreeAndText) {
  auto b = round_trip(
      "var div = document.createElement('div'); div.id = 'root'; "
      "div.setAttribute('class', 'main'); "
      "var span = document.createElement('span'); "
      "span.textContent = 'result: cat'; "
      "div.appendChild(span); document.body.appendChild(div);");
  DomNodePtr div = b->document().get_element_by_id("root");
  ASSERT_NE(div, nullptr);
  ASSERT_EQ(div->children.size(), 1u);
  EXPECT_EQ(div->children[0]->text, "result: cat");
  const std::string* cls = div->get_attribute("class");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls, "main");
}

TEST(Snapshot, DetachedDomNodeReachableFromHeap) {
  auto b = round_trip(
      "var orphan = document.createElement('p'); orphan.textContent = 'o';");
  Value* v = b->globals()->find("orphan");
  ASSERT_NE(v, nullptr);
  auto node = std::get<DomNodePtr>(*v);
  EXPECT_EQ(node->text, "o");
  EXPECT_TRUE(node->parent.expired());
}

TEST(Snapshot, DomListenerWorksAfterRestore) {
  auto b = round_trip(
      "var clicks = 0; "
      "var btn = document.createElement('button'); btn.id = 'btn'; "
      "document.body.appendChild(btn); "
      "btn.addEventListener('click', function() { clicks = clicks + 1; });");
  b->eval_program("document.getElementById('btn').dispatchEvent('click');");
  b->run_events();
  EXPECT_EQ(global_number(*b, "clicks"), 1);
}

TEST(Snapshot, PendingEventRedispatchedOnRestore) {
  // The paper's core flow: event enqueued but not yet handled; after
  // migration the server re-raises it and execution continues there.
  Interpreter a;
  a.eval_program(
      "var state = 'before'; "
      "var btn = document.createElement('button'); btn.id = 'b'; "
      "document.body.appendChild(btn); "
      "btn.addEventListener('infer', function(e) { "
      "  state = 'done:' + e.detail; }); "
      "btn.dispatchEvent('infer', 7);");
  // Do NOT run events — the event is pending, like an offload point.
  SnapshotResult snap = capture_snapshot(a);
  EXPECT_EQ(snap.stats.events, 1u);

  Interpreter b;
  restore_snapshot(b, snap.program);
  EXPECT_EQ(global_string(b, "state"), "before");
  b.run_events();
  EXPECT_EQ(global_string(b, "state"), "done:7");
}

TEST(Snapshot, MultiplePendingEventsKeepOrder) {
  Interpreter a;
  a.eval_program(
      "var log = []; var b = document.createElement('b'); "
      "document.body.appendChild(b); "
      "b.addEventListener('e', function(ev) { log.push(ev.detail); }); "
      "b.dispatchEvent('e', 1); b.dispatchEvent('e', 2); "
      "b.dispatchEvent('e', 3);");
  SnapshotResult snap = capture_snapshot(a);
  Interpreter b;
  restore_snapshot(b, snap.program);
  b.run_events();
  EXPECT_EQ(to_display_string(b.eval_program("log.join(',');")), "1,2,3");
}

TEST(Snapshot, CanvasImageDataSurvives) {
  auto b = round_trip(
      "var canvas = document.createElement('canvas'); canvas.id = 'cv'; "
      "document.body.appendChild(canvas); "
      "canvas.setImageData(Float32Array([0.5, 0.25, 0.125]));");
  EXPECT_EQ(b->eval_program(
                "document.getElementById('cv').getImageData()[2];"),
            Value(0.125));
}

TEST(Snapshot, Deterministic) {
  const std::string src =
      "var a = {x: [1, 2, {y: 'z'}]}; function f() { return a; } "
      "var t = Float32Array([1, 2, 3]);";
  Interpreter i1;
  i1.eval_program(src);
  Interpreter i2;
  i2.eval_program(src);
  EXPECT_EQ(capture_snapshot(i1).program, capture_snapshot(i2).program);
}

TEST(Snapshot, SecondGenerationSnapshot) {
  // Snapshot a restored realm (server → client direction). State must
  // survive two hops, and the second snapshot must not balloon.
  SnapshotResult first;
  auto b = round_trip(
      "function makeCounter() { var n = 0; "
      "return function() { n = n + 1; return n; }; } "
      "var counter = makeCounter(); counter();",
      {}, &first);
  b->eval_program("counter();");  // now 2
  SnapshotResult second = capture_snapshot(*b);
  Interpreter c;
  restore_snapshot(c, second.program);
  EXPECT_EQ(c.eval_program("counter();"), Value(3.0));
  // No environment/temporary leakage between generations.
  EXPECT_LT(second.stats.total_bytes, first.stats.total_bytes * 3);
}

TEST(Snapshot, RebindingAmbientGlobalIsSerialized) {
  auto b = round_trip("console = {log: 'shadowed'};");
  EXPECT_EQ(b->eval_program("console.log;"), Value(std::string("shadowed")));
}

TEST(Snapshot, StatsAccounting) {
  SnapshotResult snap;
  round_trip(
      "var o = {a: 1}; var arr = [1, 2]; var t = Float32Array(8); "
      "function f() { return 0; } "
      "var d = document.createElement('div'); document.body.appendChild(d);",
      {}, &snap);
  EXPECT_EQ(snap.stats.objects, 1u);
  EXPECT_EQ(snap.stats.arrays, 1u);
  EXPECT_EQ(snap.stats.typed_arrays, 1u);
  EXPECT_EQ(snap.stats.functions, 1u);
  EXPECT_EQ(snap.stats.dom_nodes, 2u);  // body + div
  EXPECT_EQ(snap.stats.globals, 5u);
  EXPECT_GT(snap.stats.typed_array_bytes, 0u);
  EXPECT_LT(snap.stats.typed_array_bytes, snap.stats.total_bytes);
}

TEST(Snapshot, FeatureDataDominatesLargeSnapshots) {
  // A large typed array (feature data) should dominate snapshot size, the
  // premise of Table 1's "snapshot except feature data" metric.
  Interpreter a;
  a.eval_program(
      "var feature = Float32Array(10000); "
      "for (var i = 0; i < 10000; i++) { feature[i] = i * 0.123 - 600.0; }");
  SnapshotResult snap = capture_snapshot(a);
  EXPECT_GT(snap.stats.typed_array_bytes,
            snap.stats.total_bytes * 9 / 10);
  EXPECT_LT(snap.stats.non_feature_bytes(), 2000u);
}

class HeapRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HeapRoundTrip, RestoredRealmFingerprintsEqual) {
  // 2n + 1 heap objects (n objects, their tag arrays, and root), each a
  // local of the snapshot's one restore scope; peers share references.
  const int n = GetParam();
  const std::string src =
      "var root = [];\n"
      "for (var i = 0; i < " + std::to_string(n) + "; i++) {\n"
      "  root.push({id: i, name: 'node' + i, tags: [i, i * 2],\n"
      "             peer: i > 0 ? root[Math.floor(i / 2)] : null});\n"
      "}\n";
  Interpreter a;
  a.eval_program(src);
  SnapshotResult snap;
  auto b = round_trip(src, {}, &snap);
  EXPECT_EQ(snap.stats.objects + snap.stats.arrays,
            2 * static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(fingerprint_realm(a).version, fingerprint_realm(*b).version);
  EXPECT_EQ(b->eval_program("root[" + std::to_string(n - 1) + "].peer.id;"),
            Value(static_cast<double>((n - 1) / 2)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeapRoundTrip, ::testing::Values(100, 10000));

/// A 10^5-deep chain built by `source` in a fresh realm survives capture
/// (whose heap walk keeps a constant call depth), restores on a fresh
/// realm and fingerprints the same there.
void check_deep_chain(const std::string& source) {
  Interpreter a;
  a.eval_program(source);
  SnapshotResult snap = capture_snapshot(a);
  Interpreter b;
  restore_snapshot(b, snap.program);
  EXPECT_EQ(fingerprint_realm(a).version, fingerprint_realm(b).version);
}

TEST(SnapshotDeepChain, ObjectChain) {
  check_deep_chain(
      "var head = {};\n"
      "var p = head;\n"
      "for (var i = 0; i < 100000; i++) { p.next = {}; p = p.next; }\n");
}

TEST(SnapshotDeepChain, ArrayChain) {
  check_deep_chain(
      "var head = [];\n"
      "var q = head;\n"
      "for (var i = 0; i < 100000; i++) { var n = []; q.push(n); q = n; }\n");
}

TEST(SnapshotDeepChain, ClosureChain) {
  // Each closure's environment holds the previous closure.
  check_deep_chain(
      "var f = function() { return 0; };\n"
      "for (var i = 0; i < 100000; i++) {\n"
      "  f = (function(prev) { return function() { return prev; }; })(f);\n"
      "}\n");
}

// ------------------------------------------------------------ writer goldens

/// One realm that reaches every branch of the snapshot writer: a closure
/// env chain whose two function envs share a parent, a cyclic object, an
/// array holding a script and a native function, a decimal typed array, an
/// attached canvas with pixels and a listener, an attached text node, a
/// queued event, and a detached subtree (children, text, a listener) that
/// only a global reaches. Every number is finite.
constexpr const char* kGoldenRealm =
    "function outer(base) {\n"
    "  var total = base;\n"
    "  function mk(step) {\n"
    "    return function() { total = total + step; return total; };\n"
    "  }\n"
    "  return {up: mk(1), down: mk(-1)};\n"
    "}\n"
    "var counter = outer(10);\n"
    "var node = {name: 'n\\\"q\\n', weight: -2.5};\n"
    "node.self = node;\n"
    "node.list = [1, 'two', null, true, undefined, 0.1,\n"
    "             function(x) { return x * 2; }, Math.floor];\n"
    "var feat = Float32Array([0.5, -1.25, 3, 1e-7, 0]);\n"
    "var cv = document.createElement('canvas');\n"
    "cv.id = 'cv';\n"
    "cv.setAttribute('width', '2');\n"
    "document.body.appendChild(cv);\n"
    "cv.setImageData(Float32Array([0.25, 0.75]));\n"
    "cv.addEventListener('draw', function(e) { feat[0] = e.detail; });\n"
    "var label = document.createElement('div');\n"
    "label.textContent = 'waiting';\n"
    "document.body.appendChild(label);\n"
    "function makePanel(title) {\n"
    "  var p = document.createElement('section');\n"
    "  var h = document.createElement('h1');\n"
    "  h.textContent = title;\n"
    "  p.appendChild(h);\n"
    "  p.appendChild(document.createElement('p'));\n"
    "  p.addEventListener('toggle', function(e) { h.id = e.detail; });\n"
    "  return p;\n"
    "}\n"
    "var panel = makePanel('Title');\n"
    "var legacy = 3;\n"
    "cv.dispatchEvent('draw', 2.5);\n";

/// The client-side changes the differential golden ships: a changed
/// closure env chain, a new global with a fresh detached subtree, a typed
/// array and a reference to an attached node, and attached text and canvas
/// content changes.
constexpr const char* kGoldenChange =
    "counter.up();\n"
    "var fresh = {panel: makePanel('Fresh'), at: label,\n"
    "             data: Float32Array([1.5, -2])};\n"
    "label.textContent = 'done';\n"
    "cv.setImageData(Float32Array([0.5, 0.125, 2]));\n";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The program followed by one comment line with its stats.
std::string golden_text(const std::string& program,
                        const SnapshotStats& s) {
  std::ostringstream out;
  out << program << "// bytes=" << s.total_bytes
      << " typed_array_bytes=" << s.typed_array_bytes
      << " objects=" << s.objects << " arrays=" << s.arrays
      << " typed_arrays=" << s.typed_arrays << " functions=" << s.functions
      << " environments=" << s.environments << " dom_nodes=" << s.dom_nodes
      << " globals=" << s.globals << " events=" << s.events << "\n";
  return out.str();
}

/// Compare `content` with the golden file byte for byte, or rewrite the
/// golden when OFFLOAD_UPDATE_GOLDEN is set.
void check_golden(const std::string& name, const std::string& content) {
  const std::string path = std::string(SNAPSHOT_GOLDEN_DIR) + "/" + name;
  const char* update = std::getenv("OFFLOAD_UPDATE_GOLDEN");
  if (update != nullptr && *update != '\0' && *update != '0') {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden " << path;
    out << content;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "golden " << path << " missing/empty";
  std::istringstream got(content), want(expected);
  std::string gline, wline;
  for (int line = 1; std::getline(want, wline); ++line) {
    ASSERT_TRUE(std::getline(got, gline)) << name << " ends at line " << line;
    ASSERT_EQ(gline, wline) << "first divergence at " << name << ":" << line;
  }
  EXPECT_EQ(content, expected) << name << " differs in length";
}

TEST(SnapshotGolden, FullCaptureBytes) {
  Interpreter a;
  a.eval_program(kGoldenRealm);
  ASSERT_EQ(a.event_queue().size(), 1u);
  SnapshotResult text = capture_snapshot(a);
  SnapshotOptions b64;
  b64.base64_typed_arrays = true;
  SnapshotResult packed = capture_snapshot(a, b64);
  check_golden("snapshot_full.txt", golden_text(text.program, text.stats) +
                                        golden_text(packed.program,
                                                    packed.stats));

  // Both encodings restore to the same realm.
  for (const SnapshotResult* snap : {&text, &packed}) {
    Interpreter b;
    restore_snapshot(b, snap->program);
    EXPECT_EQ(fingerprint_realm(b).version, fingerprint_realm(a).version);
    EXPECT_EQ(capture_snapshot(b).program, text.program);
  }
}

TEST(SnapshotGolden, DiffCaptureBytes) {
  Interpreter client;
  client.eval_program(kGoldenRealm);
  Interpreter server;
  restore_snapshot(server, capture_snapshot(client).program);
  const RealmFingerprint baseline = fingerprint_realm(client);
  client.eval_program(kGoldenChange);
  // The host takes the app's `legacy` name over as an ambient binding, so
  // the diff removes the app global.
  client.set_global("legacy", Value(true));

  DiffSnapshotResult diff = capture_snapshot_diff(client, baseline);
  ASSERT_FALSE(diff.full_fallback);
  EXPECT_EQ(diff.base_version, baseline.version);
  check_golden("snapshot_diff.txt", golden_text(diff.program, diff.stats));

  server.eval_program(diff.program, "diff");
  EXPECT_EQ(server.eval_program("counter.up();"), Value(12.0));
  EXPECT_EQ(server.eval_program("fresh.panel.firstChild.textContent;"),
            Value(std::string("Fresh")));
  EXPECT_TRUE(is_undefined(server.eval_program("legacy;")));
  EXPECT_EQ(server.document().get_element_by_id("cv")->canvas_data->data,
            (std::vector<float>{0.5f, 0.125f, 2.0f}));
  EXPECT_EQ(server.event_queue().size(), 2u);
}

}  // namespace
}  // namespace offload::jsvm
