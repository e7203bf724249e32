// Tests for realm fingerprinting and differential snapshots (the paper's
// Section VI future work): ship only the state that changed since the last
// offload, applying it to the session realm the server kept.
#include "src/jsvm/snapshot.h"

#include <gtest/gtest.h>

namespace offload::jsvm {
namespace {

/// Build two identical realms: the "client" (live) and a "server session"
/// replica created by restoring the client's full snapshot.
struct Pair {
  Interpreter client;
  std::unique_ptr<Interpreter> server = std::make_unique<Interpreter>();
  RealmFingerprint baseline;

  explicit Pair(const std::string& setup) {
    client.eval_program(setup);
    client.run_events();
    SnapshotResult snap = capture_snapshot(client);
    restore_snapshot(*server, snap.program);
    baseline = fingerprint_realm(client);
    // Sanity: the replica fingerprints identically.
    EXPECT_EQ(fingerprint_realm(*server).version, baseline.version);
  }

  /// Diff the client against the baseline and apply to the server.
  DiffSnapshotResult sync() {
    DiffSnapshotResult diff = capture_snapshot_diff(client, baseline);
    if (diff.full_fallback) {
      // A fallback is a full snapshot for a fresh realm; emulate the
      // server dropping its session.
      server = std::make_unique<Interpreter>();
      restore_snapshot(*server, diff.program);
    } else {
      server->eval_program(diff.program, "diff");
    }
    return diff;
  }

  void expect_in_sync() {
    EXPECT_EQ(fingerprint_realm(client).version,
              fingerprint_realm(*server).version);
  }
};

TEST(Fingerprint, DeterministicAcrossRealms) {
  const std::string src =
      "var a = {x: [1, 2, 3]}; var s = 'txt'; "
      "function f() { return a; } "
      "var d = document.createElement('div'); d.textContent = 'hello'; "
      "document.body.appendChild(d);";
  Interpreter i1;
  i1.eval_program(src);
  Interpreter i2;
  i2.eval_program(src);
  RealmFingerprint f1 = fingerprint_realm(i1);
  RealmFingerprint f2 = fingerprint_realm(i2);
  EXPECT_EQ(f1.version, f2.version);
  EXPECT_EQ(f1.globals, f2.globals);
  EXPECT_EQ(f1.dom_structure, f2.dom_structure);
}

TEST(Fingerprint, SensitiveToGlobalMutation) {
  Interpreter interp;
  interp.eval_program("var a = {x: 1};");
  std::uint64_t before = fingerprint_realm(interp).version;
  interp.eval_program("a.x = 2;");
  EXPECT_NE(fingerprint_realm(interp).version, before);
}

TEST(Fingerprint, DeepMutationChangesRootHash) {
  Interpreter interp;
  interp.eval_program("var a = {inner: {deep: [1, 2]}};");
  RealmFingerprint before = fingerprint_realm(interp);
  interp.eval_program("a.inner.deep[1] = 99;");
  RealmFingerprint after = fingerprint_realm(interp);
  EXPECT_NE(*before.find("a"), *after.find("a"));
}

TEST(Fingerprint, DomTextChangesContentNotStructure) {
  Interpreter interp;
  interp.eval_program(
      "var d = document.createElement('div'); d.textContent = 'one'; "
      "document.body.appendChild(d);");
  RealmFingerprint before = fingerprint_realm(interp);
  interp.eval_program("d.textContent = 'two';");
  RealmFingerprint after = fingerprint_realm(interp);
  EXPECT_EQ(before.dom_structure, after.dom_structure);
  EXPECT_NE(before.dom_content, after.dom_content);
}

TEST(Fingerprint, NewDomNodeChangesStructure) {
  Interpreter interp;
  interp.eval_program("var d = document.createElement('div'); "
                      "document.body.appendChild(d);");
  RealmFingerprint before = fingerprint_realm(interp);
  interp.eval_program(
      "document.body.appendChild(document.createElement('span'));");
  EXPECT_NE(fingerprint_realm(interp).dom_structure, before.dom_structure);
}

TEST(Fingerprint, GlobalSwitchingDomNodesDetected) {
  Interpreter interp;
  interp.eval_program(
      "var a = document.createElement('div'); "
      "var b = document.createElement('div'); "
      "document.body.appendChild(a); document.body.appendChild(b); "
      "var current = a;");
  RealmFingerprint before = fingerprint_realm(interp);
  interp.eval_program("current = b;");
  RealmFingerprint after = fingerprint_realm(interp);
  EXPECT_NE(*before.find("current"), *after.find("current"));
}

TEST(Fingerprint, HashValueCycleSafe) {
  Interpreter interp;
  interp.eval_program("var a = {}; a.self = a;");
  Value v = *interp.globals()->find("a");
  std::uint64_t h1 = hash_value(v);
  interp.eval_program("a.extra = 1;");
  EXPECT_NE(hash_value(v), h1);
}

TEST(DiffSnapshot, OnlyChangedGlobalShips) {
  Pair pair(
      "var big = Float32Array(5000); "
      "for (var i = 0; i < 5000; i++) { big[i] = i * 0.5; } "
      "var small = 1;");
  pair.client.eval_program("small = 2;");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  // The 5000-element array must NOT be in the diff.
  EXPECT_EQ(diff.stats.typed_arrays, 0u);
  EXPECT_LT(diff.stats.total_bytes, 200u);
  pair.expect_in_sync();
  EXPECT_EQ(pair.server->eval_program("small;"), Value(2.0));
  EXPECT_EQ(pair.server->eval_program("big[4999];"), Value(2499.5));
}

TEST(DiffSnapshot, MuchSmallerThanFullForLocalizedChange) {
  Pair pair(
      "var state = {history: []}; "
      "for (var i = 0; i < 500; i++) { state.history.push({step: i}); } "
      "var cursor = 0;");
  pair.client.eval_program("cursor = 77;");
  SnapshotResult full = capture_snapshot(pair.client);
  DiffSnapshotResult diff = capture_snapshot_diff(pair.client, pair.baseline);
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_LT(diff.stats.total_bytes * 20, full.stats.total_bytes);
  pair.sync();
  pair.expect_in_sync();
}

TEST(DiffSnapshot, RemovedGlobalBecomesUndefined) {
  Pair pair("var temp = {x: 1}; var keep = 2;");
  // MicroJS has no delete; model removal by rebinding to undefined.
  pair.client.eval_program("temp = undefined;");
  pair.sync();
  EXPECT_TRUE(is_undefined(pair.server->eval_program("temp;")));
  EXPECT_EQ(pair.server->eval_program("keep;"), Value(2.0));
}

TEST(DiffSnapshot, NewGlobalWithFreshHeap) {
  Pair pair("var a = 1;");
  pair.client.eval_program(
      "var feature = Float32Array([1.5, 2.5, 3.5]); var label = 'cat';");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_EQ(diff.stats.typed_arrays, 1u);
  pair.expect_in_sync();
  EXPECT_EQ(pair.server->eval_program("feature[2];"), Value(3.5));
}

TEST(DiffSnapshot, DomContentDiffAppliesInPlace) {
  Pair pair(
      "var result = document.createElement('div'); result.id = 'result'; "
      "document.body.appendChild(result); result.textContent = 'waiting';");
  pair.client.eval_program("result.textContent = 'label 42';");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_NE(diff.program.find("__domByIndex"), std::string::npos);
  DomNodePtr node = pair.server->document().get_element_by_id("result");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->text, "label 42");
  // Identity on the server preserved: the global still points at the same
  // node the session realm already had.
  EXPECT_EQ(std::get<DomNodePtr>(pair.server->eval_program("result;")), node);
  pair.expect_in_sync();
}

TEST(DiffSnapshot, DomStructureChangeFallsBackToFull) {
  Pair pair("var d = document.createElement('div'); "
            "document.body.appendChild(d);");
  pair.client.eval_program(
      "document.body.appendChild(document.createElement('span'));");
  DiffSnapshotResult diff = capture_snapshot_diff(pair.client, pair.baseline);
  EXPECT_TRUE(diff.full_fallback);
  pair.sync();
  pair.expect_in_sync();
}

TEST(DiffSnapshot, SharedHeapWithUnchangedGlobalFallsBack) {
  Pair pair("var shared = {n: 1}; var untouched = {ref: shared};");
  // New global referencing the shared object: rebuilding it in a diff
  // would split identity with `untouched.ref` on the server.
  pair.client.eval_program("var alias = shared;");
  DiffSnapshotResult diff = capture_snapshot_diff(pair.client, pair.baseline);
  EXPECT_TRUE(diff.full_fallback);
  pair.sync();
  pair.expect_in_sync();
  // Identity intact after the full fallback.
  pair.server->eval_program("alias.n = 9;");
  EXPECT_EQ(pair.server->eval_program("untouched.ref.n;"), Value(9.0));
}

TEST(DiffSnapshot, PendingEventRidesTheDiff) {
  Pair pair(
      "var hits = 0; "
      "var btn = document.createElement('button'); btn.id = 'b'; "
      "document.body.appendChild(btn); "
      "btn.addEventListener('go', function(e) { hits = hits + e.detail; });");
  pair.client.eval_program("btn.dispatchEvent('go', 5);");
  DiffSnapshotResult diff = capture_snapshot_diff(pair.client, pair.baseline);
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_EQ(diff.stats.events, 1u);
  pair.server->eval_program(diff.program, "diff");
  pair.server->run_events();
  EXPECT_EQ(pair.server->eval_program("hits;"), Value(5.0));
}

TEST(DiffSnapshot, ClosureStateDiff) {
  Pair pair(
      "function makeCounter() { var n = 0; "
      "return function() { n = n + 1; return n; }; } "
      "var counter = makeCounter();");
  // Advance the counter on the client: its captured env changed, so the
  // `counter` global's hash changes and the closure re-ships.
  pair.client.eval_program("counter(); counter();");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_EQ(pair.server->eval_program("counter();"), Value(3.0));
}

TEST(DiffSnapshot, SecondRoundUsesNewBaseline) {
  Pair pair("var x = 1; var log = [];");
  pair.client.eval_program("x = 2; log.push('a');");
  pair.sync();
  pair.expect_in_sync();
  // Re-baseline both sides at the new common state, then diff again.
  pair.baseline = fingerprint_realm(pair.client);
  pair.client.eval_program("x = 3;");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_LT(diff.stats.total_bytes, 120u);
  EXPECT_EQ(pair.server->eval_program("x;"), Value(3.0));
  EXPECT_EQ(pair.server->eval_program("log.length;"), Value(1.0));
}

TEST(DiffSnapshot, NoChangesProducesNearEmptyDiff) {
  Pair pair("var a = {big: Float32Array(1000)};");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_EQ(diff.stats.globals, 0u);
  EXPECT_LT(diff.stats.total_bytes, 40u);
  pair.expect_in_sync();
}

TEST(DiffSnapshot, DeepDomCapturesFingerprintsAndRestores) {
  // 10^5 nested divs: every body-tree walk (capture, diff, fingerprint,
  // __domByIndex, getElementById) must run in constant call depth.
  Pair pair(
      "var node = document.body;"
      "for (var i = 0; i < 100000; i++) {"
      "  var d = document.createElement('div'); node.appendChild(d); node = d;"
      "}"
      "node.id = 'deepest';");
  pair.expect_in_sync();
  pair.client.eval_program("node.textContent = 'bottom';");
  DiffSnapshotResult diff = pair.sync();
  EXPECT_FALSE(diff.full_fallback);
  EXPECT_NE(diff.program.find("__domByIndex(100000)"), std::string::npos);
  pair.expect_in_sync();
  DomNodePtr deepest = pair.server->document().get_element_by_id("deepest");
  ASSERT_NE(deepest, nullptr);
  EXPECT_EQ(deepest->text, "bottom");
  EXPECT_TRUE(deepest->children.empty());
  EXPECT_EQ(
      pair.client.eval_program("document.getElementById('deepest') == node;"),
      Value(true));
}

}  // namespace
}  // namespace offload::jsvm
