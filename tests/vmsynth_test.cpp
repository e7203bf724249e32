// Tests for the VM-synthesis substrate: the mlzma compressor, synthetic VM
// images, and chunk-deduplicated overlays.
#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "src/vmsynth/compress.h"
#include "src/vmsynth/overlay.h"
#include "src/vmsynth/vmimage.h"

namespace offload::vmsynth {
namespace {

util::Bytes bytes_of(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

TEST(Compress, EmptyInput) {
  util::Bytes empty;
  util::Bytes c = compress(std::span<const std::uint8_t>(empty));
  EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), empty);
}

TEST(Compress, TinyInputs) {
  for (std::size_t n = 1; n <= 8; ++n) {
    util::Bytes in(n, 0xab);
    util::Bytes c = compress(std::span<const std::uint8_t>(in));
    EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in) << "n=" << n;
  }
}

TEST(Compress, RepetitiveInputShrinksALot) {
  util::Bytes in;
  for (int i = 0; i < 1000; ++i) {
    auto chunk = bytes_of("the quick brown fox jumps over the lazy dog. ");
    in.insert(in.end(), chunk.begin(), chunk.end());
  }
  util::Bytes c = compress(std::span<const std::uint8_t>(in));
  EXPECT_LT(c.size(), in.size() / 10);
  EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in);
}

TEST(Compress, AllSameByte) {
  util::Bytes in(100'000, 0x42);
  util::Bytes c = compress(std::span<const std::uint8_t>(in));
  EXPECT_LT(c.size(), 2'000u);  // run-length via overlapping matches
  EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in);
}

TEST(Compress, RandomInputDoesNotExplode) {
  util::Pcg32 rng(99);
  util::Bytes in(200'000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u32());
  util::Bytes c = compress(std::span<const std::uint8_t>(in));
  // Incompressible data should cost only a tiny framing overhead.
  EXPECT_LT(c.size(), in.size() + in.size() / 100 + 64);
  EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in);
}

TEST(Compress, LongLiteralRunsAndLongMatches) {
  // Exercise the 15/255 length-extension encoding in both fields.
  util::Pcg32 rng(7);
  util::Bytes in(1000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u32());
  // Append a 5000-byte match of the first 5000... use a repeated block.
  util::Bytes block(in);
  for (int i = 0; i < 6; ++i) in.insert(in.end(), block.begin(), block.end());
  util::Bytes c = compress(std::span<const std::uint8_t>(in));
  EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in);
  EXPECT_LT(c.size(), 2 * block.size());
}

TEST(Compress, CorruptInputThrows) {
  util::Bytes in = bytes_of("hello hello hello hello hello hello");
  util::Bytes c = compress(std::span<const std::uint8_t>(in));
  util::Bytes bad_magic = c;
  bad_magic[0] = 'X';
  EXPECT_THROW(decompress(std::span<const std::uint8_t>(bad_magic)),
               util::DecodeError);
  util::Bytes truncated(c.begin(), c.begin() + static_cast<long>(c.size() / 2));
  EXPECT_THROW(decompress(std::span<const std::uint8_t>(truncated)),
               util::DecodeError);
}

class CompressRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(CompressRoundTrip, SyntheticContentAllRedundancies) {
  const double redundancy = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Bytes in = synthetic_file_content(50'000 + seed * 7'777, redundancy,
                                            seed);
    util::Bytes c = compress(std::span<const std::uint8_t>(in));
    EXPECT_EQ(decompress(std::span<const std::uint8_t>(c)), in)
        << "redundancy=" << redundancy << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompressRoundTrip,
                         ::testing::Values(0.0, 0.2, 0.5, 0.78, 0.95));

TEST(Compress, RedundancyIncreasesRatio) {
  util::Bytes low = synthetic_file_content(300'000, 0.1, 5);
  util::Bytes high = synthetic_file_content(300'000, 0.9, 5);
  // Equal input sizes: a ratio over twice as high is a compressed size
  // under half as large.
  EXPECT_GT(compress(std::span<const std::uint8_t>(low)).size(),
            compress(std::span<const std::uint8_t>(high)).size() * 2);
}

TEST(VmImage, PutFindReplace) {
  VmImage image;
  image.put("/a", bytes_of("one"));
  image.put("/b", bytes_of("two"));
  ASSERT_NE(image.find("/a"), nullptr);
  EXPECT_EQ(image.find("/a")->content, bytes_of("one"));
  EXPECT_EQ(image.find("/missing"), nullptr);
  image.put("/a", bytes_of("replaced"));
  EXPECT_EQ(image.find("/a")->content, bytes_of("replaced"));
  EXPECT_EQ(image.files().size(), 2u);
  EXPECT_EQ(image.total_bytes(), 8u + 3u);
}

TEST(VmImage, DigestDetectsChanges) {
  VmImage a;
  a.put("/x", bytes_of("same"));
  VmImage b;
  b.put("/x", bytes_of("same"));
  EXPECT_EQ(a.digest(), b.digest());
  b.put("/x", bytes_of("diff"));
  EXPECT_NE(a.digest(), b.digest());
}

TEST(VmImage, SyntheticContentDeterministic) {
  EXPECT_EQ(synthetic_file_content(10'000, 0.5, 42),
            synthetic_file_content(10'000, 0.5, 42));
  EXPECT_NE(synthetic_file_content(10'000, 0.5, 42),
            synthetic_file_content(10'000, 0.5, 43));
}

TEST(Overlay, RoundTripSynthesis) {
  VmImage base = make_base_image(1);
  SystemBundleSizes sizes;
  sizes.browser_bytes = 400'000;
  sizes.libraries_bytes = 500'000;
  sizes.server_program_bytes = 50'000;
  std::vector<std::pair<std::string, util::Bytes>> model = {
      {"model.weights", synthetic_file_content(200'000, 0.0, 9)}};
  VmImage target = make_customized_image(base, sizes, model);

  VmOverlay overlay = create_overlay(base, target);
  VmImage rebuilt = synthesize(base, overlay);
  EXPECT_EQ(rebuilt.digest(), target.digest());
  EXPECT_EQ(rebuilt.files().size(), target.files().size());
}

TEST(Overlay, UnchangedFilesCostNothing) {
  VmImage base = make_base_image(1);
  VmImage target = base;
  target.put("/new/file", bytes_of("tiny addition"));
  VmOverlay overlay = create_overlay(base, target);
  EXPECT_EQ(overlay.stats.new_files, 1u);
  EXPECT_EQ(overlay.stats.changed_files, 0u);
  EXPECT_LT(overlay.payload.size(), 600u);
}

TEST(Overlay, BaseChunksAreReused) {
  VmImage base;
  base.put("/big", synthetic_file_content(400'000, 0.0, 3));
  VmImage target = base;
  // Append to the incompressible file: its original chunks should come
  // from the base by reference, only the tail travels.
  util::Bytes grown = base.find("/big")->content;
  util::Bytes tail = synthetic_file_content(20'000, 0.0, 4);
  grown.insert(grown.end(), tail.begin(), tail.end());
  target.put("/big", grown);

  VmOverlay overlay = create_overlay(base, target);
  EXPECT_GT(overlay.stats.reused_chunks, 90u);
  EXPECT_LT(overlay.payload.size(), 40'000u);
  VmImage rebuilt = synthesize(base, overlay);
  EXPECT_EQ(rebuilt.digest(), target.digest());
}

TEST(Overlay, ModelWeightsAreIncompressible) {
  // DNN weights (random floats) should pass through ~1:1 while system
  // files shrink — the effect behind Table 1's overlay arithmetic.
  VmImage base = make_base_image(1);
  SystemBundleSizes sizes;
  sizes.browser_bytes = 600'000;
  sizes.libraries_bytes = 600'000;
  sizes.server_program_bytes = 30'000;
  std::vector<std::pair<std::string, util::Bytes>> no_model;
  std::vector<std::pair<std::string, util::Bytes>> with_model = {
      {"m.weights", synthetic_file_content(500'000, 0.0, 77)}};
  VmOverlay system_only = create_overlay(base, make_customized_image(
                                                    base, sizes, no_model));
  VmOverlay with = create_overlay(base,
                                  make_customized_image(base, sizes,
                                                        with_model));
  std::uint64_t model_cost =
      with.payload.size() - system_only.payload.size();
  // The model should cost nearly its raw size (within 5%).
  EXPECT_GT(model_cost, 475'000u);
  EXPECT_LT(model_cost, 525'000u);
  // System files should compress meaningfully (< 60% of raw).
  EXPECT_LT(system_only.payload.size(), 1'230'000u * 6 / 10);
}

TEST(Overlay, CorruptPayloadThrows) {
  VmImage base = make_base_image(1);
  VmImage target = base;
  target.put("/f", bytes_of("data data data data data data"));
  VmOverlay overlay = create_overlay(base, target);
  overlay.payload[overlay.payload.size() / 2] ^= 0xff;
  EXPECT_THROW(synthesize(base, overlay), util::DecodeError);
}

TEST(Overlay, SynthesisComputeTimeScalesWithBytes) {
  OverlayStats small{.uncompressed_bytes = 1'000'000,
                     .compressed_bytes = 500'000};
  OverlayStats big{.uncompressed_bytes = 100'000'000,
                   .compressed_bytes = 50'000'000};
  EXPECT_LT(synthesis_compute_seconds(small),
            synthesis_compute_seconds(big));
  EXPECT_NEAR(synthesis_compute_seconds(big) /
                  synthesis_compute_seconds(small),
              100.0, 1e-6);
}

}  // namespace
}  // namespace offload::vmsynth
