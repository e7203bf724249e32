// Property-based tests for the snapshot engine: generate randomized heap
// graphs (with sharing, cycles, typed arrays, closures, DOM references),
// snapshot them, restore into a fresh realm, and verify deep structural
// equality — including identity relations (shared references stay shared,
// distinct ones stay distinct).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "src/jsvm/lexer.h"
#include "src/jsvm/snapshot.h"
#include "src/util/rng.h"

namespace offload::jsvm {
namespace {

// ----------------------------------------------------------- random graphs

/// Builds a random value graph directly in a realm, its objects and arrays
/// made by the realm so it frees them, cycles included. Kept small per
/// case; the sweep runs many seeds.
class GraphGenerator {
 public:
  GraphGenerator(Interpreter& interp, std::uint64_t seed)
      : interp_(interp), rng_(seed, 0x67656e65726174ULL) {}

  void build(int num_globals) {
    // A pool of heap values to create sharing and cycles across globals.
    const int pool_size = 3 + static_cast<int>(rng_.next_below(6));
    for (int i = 0; i < pool_size; ++i) {
      pool_.push_back(make_value(2));
    }
    // Retro-link random pool objects to each other (cycles).
    for (int i = 0; i < pool_size; ++i) {
      if (auto* obj = std::get_if<ObjectPtr>(&pool_[static_cast<std::size_t>(
              i)])) {
        if (rng_.chance(0.5)) {
          (*obj)->set("link",
                      pool_[rng_.next_below(static_cast<std::uint32_t>(
                          pool_.size()))]);
        }
      }
    }
    for (int g = 0; g < num_globals; ++g) {
      interp_.globals()->declare("g" + std::to_string(g), make_value(3));
    }
  }

 private:
  Value make_value(int depth) {
    // Reuse pool values often to exercise shared references.
    if (depth < 3 && rng_.chance(0.3) && !pool_.empty()) {
      return pool_[rng_.next_below(static_cast<std::uint32_t>(pool_.size()))];
    }
    switch (depth <= 0 ? rng_.next_below(6) : rng_.next_below(9)) {
      case 0:
        return Undefined{};
      case 1:
        return Null{};
      case 2:
        return rng_.chance(0.5);
      case 3:
        // Mix integers, fractions, negatives, extremes.
        switch (rng_.next_below(4)) {
          case 0: return static_cast<double>(rng_.next_u32());
          case 1: return rng_.uniform(-1e6, 1e6);
          case 2: return rng_.uniform(-1e-6, 1e-6);
          default: return -0.0;
        }
      case 4: {
        std::string s;
        std::size_t len = rng_.next_below(12);
        for (std::size_t i = 0; i < len; ++i) {
          // Include quotes, backslashes, control chars.
          static const char alphabet[] =
              "ab\"\\\n\t\rz{}[]$_0; \x01\x1f";
          s.push_back(alphabet[rng_.next_below(sizeof(alphabet) - 1)]);
        }
        return s;
      }
      case 5: {
        auto ta = std::make_shared<TypedArray>();
        std::size_t len = rng_.next_below(8);
        for (std::size_t i = 0; i < len; ++i) {
          ta->data.push_back(static_cast<float>(rng_.uniform(-100, 100)));
        }
        return ta;
      }
      case 6: {
        auto obj = interp_.make_object();
        std::size_t props = rng_.next_below(4);
        for (std::size_t i = 0; i < props; ++i) {
          obj->set("p" + std::to_string(i), make_value(depth - 1));
        }
        return obj;
      }
      case 7: {
        auto arr = interp_.make_array();
        std::size_t n = rng_.next_below(5);
        for (std::size_t i = 0; i < n; ++i) {
          arr->elements.push_back(make_value(depth - 1));
        }
        return arr;
      }
      default: {
        // A closure over fresh state.
        int seed_n = static_cast<int>(rng_.next_below(100));
        std::string name = "mk" + std::to_string(counter_++);
        interp_.eval_program(
            "function " + name + "() { var n = " + std::to_string(seed_n) +
            "; return function(d) { n = n + d; return n; }; }");
        return interp_.eval_program(name + "();");
      }
    }
  }

  Interpreter& interp_;
  util::Pcg32 rng_;
  std::vector<Value> pool_;
  int counter_ = 0;
};

// ------------------------------------------------------------ deep compare

/// Structural equality with identity tracking: value graphs must be
/// isomorphic (same shapes AND same sharing).
class DeepComparer {
 public:
  bool equal(const Value& a, const Value& b) {
    if (a.index() != b.index()) return false;
    if (const auto* oa = std::get_if<ObjectPtr>(&a)) {
      const auto& ob = std::get<ObjectPtr>(b);
      if (!match_identity(oa->get(), ob.get())) return false;
      if (visited_.count(oa->get())) return true;
      visited_.insert(oa->get());
      if ((*oa)->properties.size() != ob->properties.size()) return false;
      for (std::size_t i = 0; i < (*oa)->properties.size(); ++i) {
        if ((*oa)->properties[i].first != ob->properties[i].first) {
          return false;
        }
        if (!equal((*oa)->properties[i].second, ob->properties[i].second)) {
          return false;
        }
      }
      return true;
    }
    if (const auto* aa = std::get_if<ArrayPtr>(&a)) {
      const auto& ab = std::get<ArrayPtr>(b);
      if (!match_identity(aa->get(), ab.get())) return false;
      if (visited_.count(aa->get())) return true;
      visited_.insert(aa->get());
      if ((*aa)->elements.size() != ab->elements.size()) return false;
      for (std::size_t i = 0; i < (*aa)->elements.size(); ++i) {
        if (!equal((*aa)->elements[i], ab->elements[i])) return false;
      }
      return true;
    }
    if (const auto* ta = std::get_if<TypedArrayPtr>(&a)) {
      const auto& tb = std::get<TypedArrayPtr>(b);
      if (!match_identity(ta->get(), tb.get())) return false;
      // Bit-exact float payloads.
      if ((*ta)->data.size() != tb->data.size()) return false;
      for (std::size_t i = 0; i < (*ta)->data.size(); ++i) {
        if (std::bit_cast<std::uint32_t>((*ta)->data[i]) !=
            std::bit_cast<std::uint32_t>(tb->data[i])) {
          return false;
        }
      }
      return true;
    }
    if (const auto* fa = std::get_if<FunctionPtr>(&a)) {
      const auto& fb = std::get<FunctionPtr>(b);
      if (!match_identity(fa->get(), fb.get())) return false;
      return (*fa)->source() == fb->source();
    }
    if (const auto* na = std::get_if<NativeFnPtr>(&a)) {
      return (*na)->registry_name ==
             std::get<NativeFnPtr>(b)->registry_name;
    }
    if (const auto* da = std::get_if<double>(&a)) {
      // NaN-safe bit comparison (snapshots round-trip bits).
      return std::bit_cast<std::uint64_t>(*da) ==
             std::bit_cast<std::uint64_t>(std::get<double>(b));
    }
    return values_equal(a, b);
  }

 private:
  /// Enforce isomorphism: a left node must always map to the same right
  /// node and vice versa.
  bool match_identity(const void* left, const void* right) {
    auto [it, fresh] = left_to_right_.try_emplace(left, right);
    if (!fresh && it->second != right) return false;
    auto [it2, fresh2] = right_to_left_.try_emplace(right, left);
    return fresh2 ? true : it2->second == left;
  }

  std::map<const void*, const void*> left_to_right_;
  std::map<const void*, const void*> right_to_left_;
  std::set<const void*> visited_;
};

bool globals_deep_equal(Interpreter& a, Interpreter& b) {
  DeepComparer cmp;
  const auto& slots_a = a.globals()->slots();
  for (const auto& [name, value] : slots_a) {
    if (a.is_ambient_binding(name, value)) continue;
    Value* vb = b.globals()->find(name);
    if (!vb) {
      ADD_FAILURE() << "global " << name << " missing after restore";
      return false;
    }
    if (!cmp.equal(value, *vb)) {
      ADD_FAILURE() << "global " << name << " differs after restore";
      return false;
    }
  }
  return true;
}

class SnapshotRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotRoundTrip, RandomHeapGraphSurvives) {
  Interpreter a;
  GraphGenerator gen(a, GetParam());
  gen.build(6);
  SnapshotResult snap = capture_snapshot(a);

  Interpreter b;
  restore_snapshot(b, snap.program);
  EXPECT_TRUE(globals_deep_equal(a, b)) << "seed=" << GetParam();

  // Round-trip stability: a second generation preserves it again.
  SnapshotResult snap2 = capture_snapshot(b);
  Interpreter c;
  restore_snapshot(c, snap2.program);
  EXPECT_TRUE(globals_deep_equal(b, c)) << "seed=" << GetParam();
  // And the writer is a fixed point after one hop: same state → same text.
  EXPECT_EQ(capture_snapshot(c).program, snap2.program);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(SnapshotProperty, ClosuresKeepWorkingAcrossGenerations) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Interpreter a;
    GraphGenerator gen(a, seed);
    gen.build(4);
    // Find any function-valued global and advance it on both sides.
    SnapshotResult snap = capture_snapshot(a);
    Interpreter b;
    restore_snapshot(b, snap.program);
    for (const auto& [name, value] : a.globals()->slots()) {
      if (!std::holds_alternative<FunctionPtr>(value)) continue;
      if (a.is_ambient_binding(name, value)) continue;
      // Skip the "mk*" maker declarations: they return fresh closures
      // (reference values that can't compare across realms). The g*
      // globals hold the stateful inner closures, which return numbers.
      if (name.rfind("mk", 0) == 0) continue;
      Value ra = a.eval_program(name + "(7);");
      Value rb = b.eval_program(name + "(7);");
      EXPECT_TRUE(values_equal(ra, rb))
          << "closure " << name << " diverged, seed=" << seed;
    }
  }
}

TEST(SnapshotProperty, ParserRejectsMutatedSnapshotsSafely) {
  // Corrupting snapshot text must raise ParseError/JsError, never crash
  // or silently mis-restore.
  Interpreter a;
  GraphGenerator gen(a, 5);
  gen.build(5);
  SnapshotResult snap = capture_snapshot(a);
  util::Pcg32 rng(1234);
  int threw = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string mutated = snap.program;
    // Flip one character to something hostile.
    std::size_t pos = rng.next_below(
        static_cast<std::uint32_t>(mutated.size()));
    static const char junk[] = "\"{}()\\;@#";
    mutated[pos] = junk[rng.next_below(sizeof(junk) - 1)];
    Interpreter b;
    try {
      b.eval_program(mutated, "mutated-snapshot");
    } catch (const ParseError&) {
      ++threw;
    } catch (const JsError&) {
      ++threw;
    }
  }
  // Most single-character mutations must be caught (some flips are
  // semantically harmless, e.g. inside string payloads).
  EXPECT_GT(threw, 10);
}

/// Restores `program` into a fresh realm. Returns false if it was rejected
/// with ParseError or JsError; any other exception fails the test.
bool restores_or_rejects(const std::string& program) {
  Interpreter b;
  try {
    restore_snapshot(b, program);
    return true;
  } catch (const ParseError&) {
  } catch (const JsError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped " << e.what() << " on: " << program;
  }
  return false;
}

TEST(SnapshotProperty, MutatedNumberArraysEndInValueOrTypedError) {
  // A decimal-text Float32Array restores through the packed number-array
  // path; truncations and byte flips drive its rewind onto the ordinary
  // element path, which must then accept or reject exactly as usual.
  Interpreter a;
  a.eval_program(
      "var t = Float32Array(48);\n"
      "for (var i = 0; i < t.length; i++) { t[i] = (i - 20) * 0.37; }\n"
      "t[3] = -0.0; t[5] = 1e-7; t[7] = 3.4e38; t[9] = -1.5e-40;\n"
      "var box = {data: t, tag: 'f32'};");
  const std::string program = capture_snapshot(a).program;
  ASSERT_NE(program.find("__f32(["), std::string::npos);

  int restored = 0;
  for (std::size_t len = 0; len < program.size(); ++len) {
    restored += restores_or_rejects(program.substr(0, len));
  }
  EXPECT_TRUE(restores_or_rejects(program));

  const std::size_t first = program.find("__f32([");
  const std::size_t last = program.find("])", first);
  util::Pcg32 rng(20);
  static const char junk[] = "-,]. eE+0x/*[(";
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = program;
    // Most flips land inside the number list.
    const bool in_list = trial % 4 != 0;
    const std::size_t lo = in_list ? first : 0;
    const std::size_t hi = in_list ? last + 2 : mutated.size();
    const std::size_t pos =
        lo + rng.next_below(static_cast<std::uint32_t>(hi - lo));
    mutated[pos] = trial % 2 == 0
                       ? junk[rng.next_below(sizeof(junk) - 1)]
                       : static_cast<char>(rng.next_below(256));
    rejected += !restores_or_rejects(mutated);
  }
  // Many prefixes and flips still form a valid program; both outcomes
  // must occur.
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 20);
}

/// Signed zero, extreme finite floats, NaN and both infinities in a
/// Float32Array, a plain array, an object property and globals.
constexpr const char* kSpecialFloats =
    "var t = Float32Array(9); t[0] = 0; t[1] = -0.0; "
    "t[2] = 1e38; t[3] = -1e-38; t[4] = 3.4028235e38; t[5] = 1.4e-45; "
    "t[6] = 0 / 0; t[7] = 1 / 0; t[8] = -1 / 0; "
    "var list = [0 / 0, 1 / 0, -1 / 0, -0.0]; "
    "var obj = {nan: 0 / 0, inf: 1 / 0, ninf: -1 / 0}; "
    "var gnan = 0 / 0; var ginf = 1 / 0; var gninf = -1 / 0;";

TEST(SnapshotProperty, SpecialFloatsRoundTrip) {
  Interpreter a;
  a.eval_program(kSpecialFloats);
  auto ta = std::get<TypedArrayPtr>(*a.globals()->find("t"));
  ASSERT_TRUE(std::isnan(ta->data[6]));
  ASSERT_TRUE(std::isinf(ta->data[8]) && ta->data[8] < 0);
  for (bool base64 : {false, true}) {
    SnapshotOptions options;
    options.base64_typed_arrays = base64;
    SnapshotResult snap = capture_snapshot(a, options);
    Interpreter b;
    restore_snapshot(b, snap.program);
    auto tb = std::get<TypedArrayPtr>(*b.globals()->find("t"));
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(ta->data[i]),
                std::bit_cast<std::uint32_t>(tb->data[i]))
          << "slot " << i << " base64=" << base64;
    }
    EXPECT_TRUE(globals_deep_equal(a, b)) << "base64=" << base64;
    EXPECT_EQ(capture_snapshot(b, options).program, snap.program);
  }

  // One diff sync ships the same values, and new canvas pixels, to a
  // session realm.
  Interpreter client;
  client.eval_program(
      "document.body.appendChild(document.createElement('canvas')); "
      "document.body.firstChild.setImageData(Float32Array([1]));");
  Interpreter server;
  restore_snapshot(server, capture_snapshot(client).program);
  const RealmFingerprint baseline = fingerprint_realm(client);
  client.eval_program(kSpecialFloats);
  client.eval_program(
      "document.body.firstChild.setImageData("
      "Float32Array([0 / 0, 1 / 0, -1 / 0]));");
  DiffSnapshotResult diff = capture_snapshot_diff(client, baseline);
  ASSERT_FALSE(diff.full_fallback);
  server.eval_program(diff.program, "diff");
  EXPECT_TRUE(globals_deep_equal(client, server));
  EXPECT_EQ(fingerprint_realm(server).version,
            fingerprint_realm(client).version);
}

TEST(SnapshotProperty, HostileStringsRoundTrip) {
  Interpreter a;
  std::vector<std::string> cases = {
      "", "\"", "\\", "\\\"", "\n\t\r", std::string(1, '\0'),
      "'single'", "__o0", "(function(){})();", "\x01\x02\x1f",
      "ends with backslash\\",
  };
  auto arr = std::make_shared<ArrayObj>();
  for (const auto& s : cases) arr->elements.emplace_back(s);
  a.globals()->declare("strs", arr);
  SnapshotResult snap = capture_snapshot(a);
  Interpreter b;
  restore_snapshot(b, snap.program);
  auto rb = std::get<ArrayPtr>(*b.globals()->find("strs"));
  ASSERT_EQ(rb->elements.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(std::get<std::string>(rb->elements[i]), cases[i]) << i;
  }
}

class DiffProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiffProperty, RandomMutationThenDiffConverges) {
  // Build random state, replicate it, mutate the original randomly, then
  // diff-sync (or full-sync on fallback) and check fingerprints converge.
  Interpreter a;
  GraphGenerator gen(a, GetParam());
  gen.build(5);
  SnapshotResult snap = capture_snapshot(a);
  auto b = std::make_unique<Interpreter>();
  restore_snapshot(*b, snap.program);
  RealmFingerprint baseline = fingerprint_realm(a);

  // Random mutations through the language (so both heaps stay valid).
  util::Pcg32 rng(GetParam() * 977 + 3);
  const char* mutations[] = {
      "g0 = 42;",
      "g1 = {fresh: [1, 2, 3]};",
      "g2 = 'replaced';",
      "newGlobal = Float32Array([9.5]);",
      "g3 = g3;",  // no-op
  };
  int n = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    a.eval_program(mutations[rng.next_below(5)]);
  }

  DiffSnapshotResult diff = capture_snapshot_diff(a, baseline);
  if (diff.full_fallback) {
    b = std::make_unique<Interpreter>();
    restore_snapshot(*b, diff.program);
  } else {
    b->eval_program(diff.program, "diff");
  }
  EXPECT_EQ(fingerprint_realm(a).version, fingerprint_realm(*b).version)
      << "seed=" << GetParam();
  EXPECT_TRUE(globals_deep_equal(a, *b)) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace offload::jsvm
