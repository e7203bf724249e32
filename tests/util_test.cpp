// Unit tests for the util layer: binary codecs, CRC, base64, RNG, stats,
// strings, tables.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "src/nn/tensor.h"
#include "src/util/aligned.h"
#include "src/util/base64.h"
#include "src/util/bytes.h"
#include "src/util/crc32.h"
#include "src/util/hash.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"
#include "tests/crc32_reference.h"

namespace offload::util {
namespace {

using test_util::bytewise_crc32;

TEST(Bytes, WriterReaderRoundTrip) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1);
  w.f32(3.14f);
  w.f64(-2.718281828459045);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(UINT64_MAX);
  w.str("hello");
  w.blob(as_bytes("blobby"));
  Bytes data = std::move(w).take();

  BinaryReader r{std::span<const std::uint8_t>(data)};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1);
  EXPECT_EQ(r.f32(), 3.14f);
  EXPECT_EQ(r.f64(), -2.718281828459045);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), UINT64_MAX);
  EXPECT_EQ(r.str(), "hello");
  Bytes blob = r.blob();
  EXPECT_EQ(to_string(std::span<const std::uint8_t>(blob)), "blobby");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderOverrunThrows) {
  Bytes data{1, 2};
  BinaryReader r{std::span<const std::uint8_t>(data)};
  EXPECT_EQ(r.u16(), 0x0201);
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(Bytes, VarintTooLongThrows) {
  Bytes data(11, 0xff);
  BinaryReader r{std::span<const std::uint8_t>(data)};
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: "123456789" → 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  Pcg32 rng(41);
  Bytes data(1024 + 8);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      auto s = std::span<const std::uint8_t>(data).subspan(offset, len);
      ASSERT_EQ(crc32(s), bytewise_crc32(s))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, BlockParallelMatchesSerial) {
  // Inputs of two or more 1 MiB blocks are CRC'd block by block on the
  // pool and the block CRCs combined; the bytewise CRC is the reference.
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  Pcg32 rng(47);
  Bytes data(3 * kBlock + 7 + 64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  std::vector<std::size_t> lengths = {0,          1,
                                      kBlock - 1, kBlock,
                                      kBlock + 1, 2 * kBlock - 1,
                                      2 * kBlock, 2 * kBlock + 1,
                                      3 * kBlock + 7};
  for (int i = 0; i < 4; ++i) {
    lengths.push_back(rng.next_below(static_cast<std::uint32_t>(3 * kBlock)));
  }
  for (std::size_t threads : {1, 2, 4}) {
    set_default_pool_threads(threads);
    for (std::size_t len : lengths) {
      const std::size_t offset = rng.next_below(64);
      const auto s = std::span<const std::uint8_t>(data).subspan(offset, len);
      EXPECT_EQ(crc32(s), bytewise_crc32(s)) << "threads " << threads
                                             << " offset " << offset
                                             << " length " << len;
    }
  }
  set_default_pool_threads(0);
}

/// Floats whose bit patterns a lossy path would disturb: signed zero,
/// infinities, a denormal and a NaN carrying a payload.
std::vector<float> tricky_floats() {
  return {-0.0f,
          std::numeric_limits<float>::infinity(),
          -std::numeric_limits<float>::infinity(),
          std::numeric_limits<float>::denorm_min(),
          std::bit_cast<float>(0x7fc12345u),
          1.5f};
}

TEST(Bytes, F32sWritesTheBytesOfAnF32Loop) {
  const std::vector<float> values = tricky_floats();
  BinaryWriter loop;
  for (float v : values) loop.f32(v);
  BinaryWriter bulk;
  bulk.f32s(values);
  EXPECT_EQ(bulk.bytes(), loop.bytes());
}

TEST(Bytes, F32sRoundTripsBitExact) {
  const std::vector<float> values = tricky_floats();
  BinaryWriter w;
  w.f32s(values);
  Bytes data = std::move(w).take();
  std::vector<float> back(values.size());
  BinaryReader r{std::span<const std::uint8_t>(data)};
  r.f32s(back);
  EXPECT_TRUE(r.done());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(values[i]))
        << "element " << i;
  }
}

TEST(Bytes, F32sShortBlobThrowsAndLeavesDestinationUnchanged) {
  BinaryWriter w;
  w.f32s(tricky_floats());
  Bytes data = std::move(w).take();
  data.pop_back();
  std::vector<float> out(tricky_floats().size(), 7.0f);
  BinaryReader r{std::span<const std::uint8_t>(data)};
  EXPECT_THROW(r.f32s(out), DecodeError);
  for (float v : out) EXPECT_EQ(v, 7.0f);
  EXPECT_EQ(r.position(), 0u);
}

TEST(Bytes, F32sEmptySpanIsANoOp) {
  BinaryWriter w;
  w.f32s(std::span<const float>());
  EXPECT_EQ(w.size(), 0u);
  BinaryReader r{std::span<const std::uint8_t>()};
  r.f32s(std::span<float>());
  EXPECT_TRUE(r.done());
}

TEST(Base64, KnownVectors) {
  EXPECT_EQ(base64_encode(""), "");
  EXPECT_EQ(base64_encode("f"), "Zg==");
  EXPECT_EQ(base64_encode("fo"), "Zm8=");
  EXPECT_EQ(base64_encode("foo"), "Zm9v");
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

TEST(Base64, RoundTripBinary) {
  Pcg32 rng(3);
  Bytes data(1021);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u32());
  Bytes back = base64_decode(base64_encode(std::span(data)));
  EXPECT_EQ(back, data);
}

TEST(Base64, RejectsMalformed) {
  EXPECT_THROW(base64_decode("abc"), DecodeError);     // bad length
  EXPECT_THROW(base64_decode("ab!="), DecodeError);    // bad char
  EXPECT_THROW(base64_decode("=abc"), DecodeError);    // early padding
  EXPECT_THROW(base64_decode("Zg==Zg=="), DecodeError);  // data after pad
}

TEST(Rng, DeterministicStreams) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
  Pcg32 c(43);
  EXPECT_NE(a.next_u32(), c.next_u32());
}

TEST(Pcg32, AdvanceMatchesStepping) {
  for (std::uint64_t delta : {0ull, 1ull, 2ull, 63ull, (1ull << 20) + 3}) {
    Pcg32 stepped(51, 7);
    Pcg32 jumped = stepped;
    for (std::uint64_t i = 0; i < delta; ++i) stepped.next_u32();
    jumped.advance(delta);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(jumped.next_u32(), stepped.next_u32()) << "delta " << delta;
    }
  }
  // uniform() draws exactly two u32, so value i of a uniform stream sits
  // at advance(2 * i).
  Pcg32 drawn(53);
  Pcg32 jumped = drawn;
  for (int i = 0; i < 5; ++i) drawn.uniform(-1.0, 1.0);
  jumped.advance(10);
  EXPECT_EQ(jumped.uniform(-1.0, 1.0), drawn.uniform(-1.0, 1.0));
}

TEST(Rng, BoundsRespected) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
    double d = rng.canonical();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelow64MatchesNextBelowFor32BitBounds) {
  // Callers widened to next_below64 (workload client picks) must keep the
  // exact stream of existing seeded runs when the bound fits in 32 bits.
  Pcg32 a(21);
  Pcg32 b(21);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_below64(1000000), b.next_below(1000000));
  }
  EXPECT_EQ(a.next_below64(0), 0u);
  EXPECT_EQ(a.next_below64(0xffffffffULL), b.next_below(0xffffffffu));
}

TEST(Rng, NextBelow64AddressesFullRangeAboveUint32) {
  // Regression: a population bound above 2^32 must not be truncated to
  // its low 32 bits — draws have to cover the whole range.
  Pcg32 rng(23);
  const std::uint64_t bound = 5ull << 32;
  bool above_32_bits = false;
  for (int i = 0; i < 200; ++i) {
    std::uint64_t v = rng.next_below64(bound);
    EXPECT_LT(v, bound);
    if (v > 0xffffffffULL) above_32_bits = true;
  }
  // P(all 200 draws land in the low 2^32 slice) = (1/5)^200.
  EXPECT_TRUE(above_32_bits);
}

TEST(Rng, GaussianMoments) {
  Pcg32 rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.gaussian());
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  EXPECT_EQ(acc.mean(), 0.0);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
  EXPECT_EQ(acc.sum(), 40.0);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
}

TEST(Stats, EwmaConverges) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(10.0);
  EXPECT_EQ(e.value(), 10.0);  // seeded by first sample
  for (int i = 0; i < 50; ++i) e.add(20.0);
  EXPECT_NEAR(e.value(), 20.0, 1e-6);
}

TEST(Strings, SplitAndJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "|"), "a|b||c");
  auto ws = split_ws("  foo \t bar\nbaz  ");
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[1], "bar");
}

TEST(Strings, TrimAndPredicates) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_TRUE(starts_with("snapshot.js", "snap"));
  EXPECT_FALSE(starts_with("s", "snap"));
  EXPECT_TRUE(ends_with("model.weights", ".weights"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

TEST(Strings, Formatters) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(44.0 * 1024 * 1024), "44 MB");
  EXPECT_EQ(format_seconds(12.073), "12.073 s");
  EXPECT_EQ(format_seconds(0.0034), "3.40 ms");
  EXPECT_EQ(format_seconds(0.00034), "340.0 us");
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(Hash, Fnv1aStability) {
  // FNV-1a("") is the offset basis; "a" is a known value.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a("abc"), fnv1a("acb"));
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.header({"App", "Time (s)"});
  t.row({"GoogleNet", "7.79"});
  t.row({"AgeNet", "12.07"});
  std::string out = t.str();
  EXPECT_NE(out.find("| App"), std::string::npos);
  EXPECT_NE(out.find("7.79"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  // Numeric cells right-align: "7.79" is padded on the left.
  EXPECT_NE(out.find(" 7.79 |"), std::string::npos);
}

TEST(Aligned, AllocatorReturnsAlignedStorage) {
  // Grow a 64-byte-aligned vector through several reallocations; every
  // data() the allocator hands back must keep the alignment.
  std::vector<float, AlignedAllocator<float, 64>> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(static_cast<float>(i));
    EXPECT_TRUE(is_aligned(v.data(), 64));
  }
  std::vector<double, AlignedAllocator<double, 64>> d(3);
  EXPECT_TRUE(is_aligned(d.data(), 64));
  EXPECT_TRUE(is_aligned(nullptr, 64));
  alignas(64) float buf[32];
  EXPECT_TRUE(is_aligned(buf, 64));
  EXPECT_FALSE(is_aligned(buf + 1, 64));
}

TEST(Aligned, TensorStorageIsCacheLineAligned) {
  // SIMD kernels assume any tensor can be read with full cache-line loads:
  // the guarantee must survive every construction path, including the
  // copies made by reshaped() and the copy constructor.
  using offload::nn::Shape;
  using offload::nn::Tensor;
  Pcg32 rng(99);
  const Tensor zeros = Tensor::zeros({3, 5, 7});
  const Tensor rand = Tensor::random_uniform({2, 4, 4}, rng);
  const Tensor from_list({3}, {1.0f, 2.0f, 3.0f});
  const Tensor from_vec({2}, std::vector<float>{4.0f, 5.0f});
  EXPECT_TRUE(is_aligned(zeros.data().data(), 64));
  EXPECT_TRUE(is_aligned(rand.data().data(), 64));
  EXPECT_TRUE(is_aligned(from_list.data().data(), 64));
  EXPECT_TRUE(is_aligned(from_vec.data().data(), 64));

  EXPECT_TRUE(is_aligned(rand.reshaped({32}).data().data(), 64));
  const Tensor copy = rand;  // deep copy re-allocates — still aligned
  EXPECT_TRUE(is_aligned(copy.data().data(), 64));
}

}  // namespace
}  // namespace offload::util
