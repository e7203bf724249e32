// Unit tests for the CNN engine: tensors, layer math (hand-computed
// cases), graph mechanics, and the three paper models' published shapes
// and sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/nn/activation.h"
#include "src/nn/concat.h"
#include "src/nn/conv.h"
#include "src/nn/dense.h"
#include "src/nn/lrn.h"
#include "src/nn/model_io.h"
#include "src/nn/models.h"
#include "src/nn/network.h"
#include "src/nn/pool.h"

namespace offload::nn {
namespace {

TEST(Tensor, ShapeBasics) {
  Shape s{3, 224, 224};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.elements(), 3 * 224 * 224);
  EXPECT_EQ(s.str(), "3x224x224");
  EXPECT_EQ(Shape{}.elements(), 1);
  EXPECT_EQ((Shape{8}).str(), "8");
}

TEST(Tensor, ConstructAndAccess) {
  Tensor t(Shape{2, 2, 2});
  EXPECT_EQ(t.elements(), 8);
  EXPECT_EQ(t.bytes(), 32u);
  t.at(1, 0, 1) = 5.0f;
  EXPECT_EQ(t.at(1, 0, 1), 5.0f);
  EXPECT_EQ(t[5], 5.0f);  // (1*2+0)*2+1 = 5
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{3}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, Reshape) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped(Shape{6});
  EXPECT_EQ(r[4], 5.0f);
  EXPECT_THROW(t.reshaped(Shape{7}), std::invalid_argument);
}

TEST(Tensor, Argmax) {
  Tensor t(Shape{5}, {0.1f, 0.9f, 0.3f, 0.9f, 0.2f});
  EXPECT_EQ(t.argmax(), 1);  // first max wins
}

TEST(Tensor, RandomUniformDeterministic) {
  util::Pcg32 r1(5);
  util::Pcg32 r2(5);
  Tensor a = Tensor::random_uniform(Shape{100}, r1);
  Tensor b = Tensor::random_uniform(Shape{100}, r2);
  EXPECT_EQ(Tensor::max_abs_diff(a, b), 0.0f);
}

// ------------------------------------------------------------------- conv

TEST(Conv, HandComputedIdentity) {
  // 1x1 conv with weight 2 and bias 1 doubles-plus-one every pixel.
  ConvLayer conv("c", {.in_channels = 1, .out_channels = 1, .kernel = 1,
                       .stride = 1, .pad = 0});
  conv.weights()[0] = 2.0f;
  conv.bias()[0] = 1.0f;
  Tensor in(Shape{1, 2, 2}, {1, 2, 3, 4});
  const Tensor* ins[] = {&in};
  Tensor out = conv.forward(ins);
  EXPECT_EQ(out.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(out[0], 3.0f);
  EXPECT_EQ(out[3], 9.0f);
}

TEST(Conv, HandComputed3x3Sum) {
  // 3x3 all-ones filter with pad 1 computes neighborhood sums.
  ConvLayer conv("c", {.in_channels = 1, .out_channels = 1, .kernel = 3,
                       .stride = 1, .pad = 1});
  for (auto& w : conv.weights().data()) w = 1.0f;
  conv.bias()[0] = 0.0f;
  Tensor in(Shape{1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  const Tensor* ins[] = {&in};
  Tensor out = conv.forward(ins);
  EXPECT_EQ(out.at(0, 1, 1), 9.0f);  // center sees all 9
  EXPECT_EQ(out.at(0, 0, 0), 4.0f);  // corner sees 4
  EXPECT_EQ(out.at(0, 0, 1), 6.0f);  // edge sees 6
}

TEST(Conv, StrideAndShape) {
  ConvLayer conv("c", {.in_channels = 3, .out_channels = 64, .kernel = 7,
                       .stride = 2, .pad = 3});
  Shape in[] = {Shape{3, 224, 224}};
  EXPECT_EQ(conv.output_shape(in), (Shape{64, 112, 112}));  // GoogLeNet conv1
  EXPECT_EQ(conv.param_count(), 64u * 3 * 7 * 7 + 64u);
}

TEST(Conv, MultiChannelAccumulation) {
  ConvLayer conv("c", {.in_channels = 2, .out_channels = 1, .kernel = 1,
                       .stride = 1, .pad = 0});
  conv.weights()[0] = 1.0f;  // channel 0
  conv.weights()[1] = 10.0f;  // channel 1
  Tensor in(Shape{2, 1, 1}, {3, 4});
  const Tensor* ins[] = {&in};
  EXPECT_EQ(conv.forward(ins)[0], 43.0f);
}

TEST(Conv, RejectsBadInput) {
  ConvLayer conv("c", {.in_channels = 3, .out_channels = 8, .kernel = 3,
                       .stride = 1, .pad = 0});
  Shape wrong_ch[] = {Shape{4, 8, 8}};
  EXPECT_THROW(conv.output_shape(wrong_ch), std::invalid_argument);
  Shape too_small[] = {Shape{3, 2, 2}};
  EXPECT_THROW(conv.output_shape(too_small), std::invalid_argument);
  EXPECT_THROW(ConvLayer("bad", {.in_channels = 0, .out_channels = 1,
                                 .kernel = 1, .stride = 1, .pad = 0}),
               std::invalid_argument);
}

TEST(Conv, FlopsFormula) {
  ConvLayer conv("c", {.in_channels = 2, .out_channels = 4, .kernel = 3,
                       .stride = 1, .pad = 1});
  Shape in[] = {Shape{2, 8, 8}};
  // out elems = 4*8*8 = 256; per elem 2*2*9+1 = 37.
  EXPECT_EQ(conv.flops(in), 256u * 37u);
}

// ------------------------------------------------------------------- pool

TEST(Pool, MaxHandCase) {
  PoolLayer pool("p", {.kernel = 2, .stride = 2, .pad = 0}, false);
  Tensor in(Shape{1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 7});
  const Tensor* ins[] = {&in};
  Tensor out = pool.forward(ins);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2}));
  EXPECT_EQ(out[0], 5.0f);
  EXPECT_EQ(out[1], 8.0f);
}

TEST(Pool, AvgIncludesPaddingInDenominator) {
  // Caffe's average pooling divides by the full kernel area.
  PoolLayer pool("p", {.kernel = 2, .stride = 2, .pad = 0}, true);
  Tensor in(Shape{1, 2, 2}, {2, 4, 6, 8});
  const Tensor* ins[] = {&in};
  EXPECT_EQ(pool.forward(ins)[0], 5.0f);
}

TEST(Pool, CeilModeShapes) {
  // GoogLeNet's pyramid relies on ceil rounding: 112 → 56 → 28 → 14 → 7.
  PoolLayer pool("p", {.kernel = 3, .stride = 2, .pad = 0}, false);
  for (auto [in, expected] :
       {std::pair{112L, 56L}, {56L, 28L}, {28L, 14L}, {14L, 7L}}) {
    Shape s[] = {Shape{1, in, in}};
    EXPECT_EQ(pool.output_shape(s)[1], expected) << in;
  }
}

TEST(Pool, NegativeInputsSurviveMax) {
  PoolLayer pool("p", {.kernel = 2, .stride = 2, .pad = 0}, false);
  Tensor in(Shape{1, 2, 2}, {-5, -2, -9, -3});
  const Tensor* ins[] = {&in};
  EXPECT_EQ(pool.forward(ins)[0], -2.0f);
}

// --------------------------------------------------------------------- fc

TEST(FullyConnected, HandCase) {
  FullyConnectedLayer fc("f", 3, 2);
  // Row 0: [1,2,3] bias 1; row 1: [0,0,1] bias -1. The spans are the
  // weights, then the bias.
  const std::vector<std::vector<float>> params = {{1, 2, 3, 0, 0, 1}, {1, -1}};
  const std::vector<ParamSpan> spans = fc.param_spans();
  ASSERT_EQ(spans.size(), params.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].values.size(), params[i].size());
    std::copy(params[i].begin(), params[i].end(), spans[i].values.begin());
  }
  fc.params_changed();
  EXPECT_EQ(fc.param_count(), 8u);
  Tensor in(Shape{3}, {1, 1, 1});
  const Tensor* ins[] = {&in};
  Tensor out = fc.forward(ins);
  EXPECT_EQ(out[0], 7.0f);
  EXPECT_EQ(out[1], 0.0f);
}

TEST(FullyConnected, FlattensSpatialInput) {
  FullyConnectedLayer fc("f", 8, 2);
  Shape in[] = {Shape{2, 2, 2}};
  EXPECT_EQ(fc.output_shape(in), (Shape{2}));
  Shape bad[] = {Shape{9}};
  EXPECT_THROW(fc.output_shape(bad), std::invalid_argument);
}

// ------------------------------------------------------------ activations

TEST(Activation, Relu) {
  ReluLayer relu("r");
  Tensor in(Shape{4}, {-1, 0, 2, -3});
  const Tensor* ins[] = {&in};
  Tensor out = relu.forward(ins);
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[2], 2.0f);
  EXPECT_EQ(out[3], 0.0f);
}

TEST(Activation, SoftmaxSumsToOne) {
  SoftmaxLayer sm("s");
  Tensor in(Shape{4}, {1, 2, 3, 4});
  const Tensor* ins[] = {&in};
  Tensor out = sm.forward(ins);
  float sum = 0;
  for (float v : out.data()) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(out[3], out[0]);
}

TEST(Activation, SoftmaxNumericallyStable) {
  SoftmaxLayer sm("s");
  Tensor in(Shape{3}, {1000.0f, 1000.0f, 999.0f});
  const Tensor* ins[] = {&in};
  Tensor out = sm.forward(ins);
  EXPECT_FALSE(std::isnan(out[0]));
  EXPECT_NEAR(out[0], out[1], 1e-6f);
}

TEST(Activation, DropoutIsIdentityAtInference) {
  DropoutLayer drop("d", 0.5);
  Tensor in(Shape{3}, {1, 2, 3});
  const Tensor* ins[] = {&in};
  EXPECT_EQ(Tensor::max_abs_diff(drop.forward(ins), in), 0.0f);
  Shape s[] = {Shape{3}};
  EXPECT_EQ(drop.flops(s), 0u);
}

TEST(Lrn, NormalizesDownLargeActivations) {
  LrnLayer lrn("n", LrnConfig{});
  Tensor in = Tensor::full(Shape{8, 2, 2}, 10.0f);
  const Tensor* ins[] = {&in};
  Tensor out = lrn.forward(ins);
  // (k + alpha/n * sum(sq))^beta > 1, so outputs shrink.
  EXPECT_LT(out[0], 10.0f);
  EXPECT_GT(out[0], 0.0f);
}

TEST(Concat, JoinsChannels) {
  ConcatLayer cat("c");
  Tensor a = Tensor::full(Shape{2, 2, 2}, 1.0f);
  Tensor b = Tensor::full(Shape{3, 2, 2}, 2.0f);
  const Tensor* ins[] = {&a, &b};
  Tensor out = cat.forward(ins);
  EXPECT_EQ(out.shape(), (Shape{5, 2, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 1.0f);
  EXPECT_EQ(out.at(2, 0, 0), 2.0f);
}

TEST(Concat, RejectsSpatialMismatch) {
  ConcatLayer cat("c");
  Shape bad[] = {Shape{2, 2, 2}, Shape{2, 3, 3}};
  EXPECT_THROW(cat.output_shape(bad), std::invalid_argument);
  Shape one[] = {Shape{2, 2, 2}};
  EXPECT_THROW(cat.output_shape(one), std::invalid_argument);
}

// ---------------------------------------------------------------- network

TEST(Network, BuildErrors) {
  Network net("t");
  EXPECT_THROW(net.add(std::make_unique<ReluLayer>("r")),
               std::invalid_argument);  // first node must be input
  net.add(std::make_unique<InputLayer>("in", Shape{1, 4, 4}));
  EXPECT_THROW(net.add(std::make_unique<InputLayer>("in", Shape{1, 4, 4})),
               std::invalid_argument);  // duplicate name
  EXPECT_THROW(net.add(std::make_unique<ReluLayer>("r"), {"nope"}),
               std::out_of_range);  // unknown input
  // Shape errors roll the node back.
  EXPECT_THROW(
      net.add(std::make_unique<ConvLayer>(
          "c", ConvConfig{.in_channels = 9, .out_channels = 1, .kernel = 1,
                          .stride = 1, .pad = 0})),
      std::invalid_argument);
  EXPECT_FALSE(net.has_layer("c"));
  EXPECT_EQ(net.size(), 1u);
}

TEST(Network, ForwardMatchesManualComposition) {
  auto net = build_tiny_cnn(21);
  util::Pcg32 rng(4);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  Tensor full = net->forward(in);
  // front/rear composition at every cut point reproduces the full output.
  for (std::size_t cut : net->cut_points()) {
    if (cut + 1 >= net->size()) continue;
    Tensor feature = net->forward_front(in, cut);
    Tensor out = net->forward_rear(feature, cut);
    EXPECT_EQ(Tensor::max_abs_diff(out, full), 0.0f) << "cut=" << cut;
  }
}

TEST(Network, CutPointsOnChainAreEverywhere) {
  auto net = build_tiny_cnn(21);
  // A pure chain: every node is a cut point.
  EXPECT_EQ(net->cut_points().size(), net->size());
}

TEST(Network, CutPointsSkipInceptionBranches) {
  auto net = build_googlenet(7);
  auto cuts = net->cut_points();
  // Cut points exist (trunk) but are far fewer than nodes (branches are
  // not valid cuts).
  EXPECT_GT(cuts.size(), 10u);
  EXPECT_LT(cuts.size(), net->size() / 2);
  // No branch-internal conv (e.g. inc3a_3x3r) may be a cut point.
  std::size_t branch_node = net->index_of("inc3a_3x3r");
  for (auto c : cuts) EXPECT_NE(c, branch_node);
  // Inception outputs are cut points.
  std::size_t inc_out = net->index_of("inc3a_out");
  EXPECT_NE(std::find(cuts.begin(), cuts.end(), inc_out), cuts.end());
}

TEST(Network, AnalyzeShapesAndFlops) {
  auto net = build_tiny_cnn(21);
  const auto& a = net->analyze();
  EXPECT_EQ(a.shapes.size(), net->size());
  EXPECT_EQ(a.shapes[0], (Shape{3, 32, 32}));
  EXPECT_EQ(a.shapes.back(), (Shape{10}));
  EXPECT_GT(a.total_flops, 1'000'000u);
  // analyze is consistent with a real forward through every node.
  util::Pcg32 rng(4);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  for (std::size_t i = 0; i < net->size(); ++i) {
    const Tensor out = net->forward_front(in, i);
    EXPECT_EQ(out.shape(), a.shapes[i]) << i;
    EXPECT_EQ(out.bytes(), a.output_bytes[i]) << i;
  }
}

TEST(Network, ForwardRearRejectsBadFeature) {
  auto net = build_tiny_cnn(21);
  Tensor bad(Shape{7});
  EXPECT_THROW(net->forward_rear(bad, 2), std::invalid_argument);
  EXPECT_THROW(net->forward_rear(bad, net->size() - 1), std::out_of_range);
}

TEST(Network, SampleShapeMismatchThrows) {
  auto net = build_tiny_cnn(21);
  // A wrong-shaped sample, and the right sample behind a leading dim of 1.
  EXPECT_THROW(net->forward(Tensor::zeros(Shape{3, 32, 31})),
               std::invalid_argument);
  EXPECT_THROW(net->forward(Tensor::zeros(Shape{1, 3, 32, 32})),
               std::invalid_argument);
  // A restored feature with the cut's element count but another shape.
  const Shape& cut_shape = net->analyze().shapes[2];
  Tensor feature = Tensor::zeros(cut_shape);
  EXPECT_THROW(net->forward_rear(
                   feature.reshaped(Shape{1, cut_shape[0], cut_shape[1],
                                          cut_shape[2]}),
                   2),
               std::invalid_argument);
}

// ----------------------------------------------------------------- models

TEST(Models, GoogLeNetMatchesPaperSizes) {
  auto net = build_googlenet(7);
  // ~7.0M parameters ≈ 27 MB fp32 (Table 1's GoogLeNet model size).
  double mb = static_cast<double>(net->param_bytes()) / 1e6;
  EXPECT_GT(mb, 24.0);
  EXPECT_LT(mb, 30.0);
  const auto& a = net->analyze();
  // Fig. 1's published feature dims.
  EXPECT_EQ(a.shapes[net->index_of("conv1")], (Shape{64, 112, 112}));
  EXPECT_EQ(a.shapes[net->index_of("pool1")], (Shape{64, 56, 56}));
  EXPECT_EQ(a.shapes[net->index_of("inc3a_out")], (Shape{256, 28, 28}));
  EXPECT_EQ(a.shapes[net->index_of("inc3b_out")], (Shape{480, 28, 28}));
  EXPECT_EQ(a.shapes[net->index_of("inc4e_out")], (Shape{832, 14, 14}));
  EXPECT_EQ(a.shapes[net->index_of("inc5b_out")], (Shape{1024, 7, 7}));
  EXPECT_EQ(a.shapes[net->index_of("pool5")], (Shape{1024, 1, 1}));
  EXPECT_EQ(a.shapes.back(), (Shape{1000}));
  // ~3 GFLOPs per forward.
  EXPECT_GT(a.total_flops, 2'000'000'000u);
  EXPECT_LT(a.total_flops, 5'000'000'000u);
}

TEST(Models, AgeGenderNetsMatchPaperSizes) {
  auto age = build_agenet(11);
  auto gender = build_gendernet(13);
  // Table 1: 44 MB for both (they differ only in the last fc layer).
  double age_mb = static_cast<double>(age->param_bytes()) / 1e6;
  double gender_mb = static_cast<double>(gender->param_bytes()) / 1e6;
  EXPECT_GT(age_mb, 40.0);
  EXPECT_LT(age_mb, 48.0);
  EXPECT_NEAR(age_mb, gender_mb, 0.1);
  EXPECT_EQ(age->analyze().shapes.back(), (Shape{8}));
  EXPECT_EQ(gender->analyze().shapes.back(), (Shape{2}));
  // Levi–Hassner: conv1 56x56x96 after 7x7/4 on 227.
  EXPECT_EQ(age->analyze().shapes[age->index_of("conv1")],
            (Shape{96, 56, 56}));
}

TEST(Models, WeightInitIsDeterministicPerSeed) {
  auto a = build_tiny_cnn(5);
  auto b = build_tiny_cnn(5);
  auto c = build_tiny_cnn(6);
  util::Pcg32 rng(1);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  EXPECT_EQ(Tensor::max_abs_diff(a->forward(in), b->forward(in)),
            0.0f);
  EXPECT_NE(Tensor::max_abs_diff(a->forward(in), c->forward(in)),
            0.0f);
}

TEST(Models, ForwardOutputsAreFiniteProbabilities) {
  auto net = build_tiny_cnn(17);
  util::Pcg32 rng(2);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  Tensor out = net->forward(in);
  float sum = 0;
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

// --------------------------------------------------------------- model_io

TEST(ModelIo, DescriptionRoundTrip) {
  auto net = build_googlenet(7);
  std::string desc = save_description(*net);
  auto parsed = parse_description(desc);
  EXPECT_EQ(parsed->name(), net->name());
  EXPECT_EQ(parsed->size(), net->size());
  EXPECT_EQ(save_description(*parsed), desc);
  EXPECT_EQ(parsed->analyze().total_flops, net->analyze().total_flops);
}

// A client serves the network it built and never parses its own model
// files; the server builds its network from them. The two must be
// indistinguishable: the same layers and configs, bit-identical outputs.
TEST(ModelIo, SavedModelsRebuildIndistinguishably) {
  std::vector<std::unique_ptr<Network>> nets;
  nets.push_back(build_googlenet());
  nets.push_back(build_agenet());
  nets.push_back(build_gendernet());
  nets.push_back(build_tiny_cnn());
  for (const auto& net : nets) {
    SCOPED_TRACE(net->name());
    const std::string desc = save_description(*net);
    const auto parsed = parse_description(desc);
    ASSERT_EQ(parsed->size(), net->size());
    for (std::size_t i = 0; i < net->size(); ++i) {
      EXPECT_EQ(parsed->layer(i).name(), net->layer(i).name());
      EXPECT_EQ(parsed->layer(i).kind(), net->layer(i).kind());
      EXPECT_EQ(parsed->layer(i).config_str(), net->layer(i).config_str())
          << net->layer(i).name();
      EXPECT_EQ(parsed->inputs_of(i), net->inputs_of(i));
    }

    const auto rebuilt = parse_description(desc);
    load_weights(*rebuilt, save_weights(*net));
    util::Pcg32 rng(29);
    const Tensor in =
        Tensor::random_uniform(net->analyze().shapes[0], rng, 0.0f, 1.0f);
    const Tensor a = net->forward(in);
    const Tensor b = rebuilt->forward(in);
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          a.data().size() * sizeof(float)),
              0);
  }
}

TEST(ModelIo, WeightsRoundTripBitExact) {
  auto net = build_tiny_cnn(23);
  auto files = model_files(*net);
  ASSERT_EQ(files.size(), 2u);
  auto rebuilt =
      parse_description(util::to_string(files[0].bytes()));
  load_weights(*rebuilt, files[1].bytes());
  util::Pcg32 rng(9);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  EXPECT_EQ(Tensor::max_abs_diff(net->forward(in),
                                 rebuilt->forward(in)),
            0.0f);
}

TEST(ModelIo, RearOnlySplit) {
  auto net = build_tiny_cnn(23);
  std::size_t cut = 2;  // after pool1
  auto rear_files = model_files_rear_only(*net, cut);
  // Rear bundle is smaller than the full bundle.
  EXPECT_LT(total_size(rear_files), total_size(model_files(*net)));
  auto rebuilt =
      parse_description(util::to_string(rear_files[0].bytes()));
  load_weights(*rebuilt, rear_files[1].bytes());
  // Rear execution matches (front weights irrelevant for the rear range).
  util::Pcg32 rng(9);
  Tensor in = Tensor::random_uniform(Shape{3, 32, 32}, rng, 0.0f, 1.0f);
  Tensor feature = net->forward_front(in, cut);
  EXPECT_EQ(Tensor::max_abs_diff(net->forward_rear(feature, cut),
                                 rebuilt->forward_rear(feature, cut)),
            0.0f);
  // But the rebuilt front differs (weights withheld → zeros).
  EXPECT_NE(Tensor::max_abs_diff(net->forward_front(in, cut),
                                 rebuilt->forward_front(in, cut)),
            0.0f);
}

TEST(ModelIo, WeightsSizeMatchesSaveWeightsAtEveryCut) {
  std::vector<std::unique_ptr<Network>> nets;
  nets.push_back(build_googlenet(7));
  nets.push_back(build_agenet(11));
  nets.push_back(build_gendernet(13));
  nets.push_back(build_tiny_cnn(17));
  for (const auto& net : nets) {
    SCOPED_TRACE(net->name());
    EXPECT_EQ(weights_size(*net), save_weights(*net).size());
    for (std::size_t cut : net->cut_points()) {
      EXPECT_EQ(weights_size(*net, cut + 1, net->size()),
                save_weights(*net, cut + 1, net->size()).size())
          << "rear of cut " << cut;
    }
  }
}

/// save_weights' format written out one element at a time, as the
/// reference for the bulk float blocks.
util::Bytes reference_weights(Network& net) {
  util::BinaryWriter w;
  w.raw("OFWT");
  w.u32(1);
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (net.layer(i).param_count() > 0) ++count;
  }
  w.u32(count);
  for (std::size_t i = 0; i < net.size(); ++i) {
    Layer& layer = net.layer(i);
    if (layer.param_count() == 0) continue;
    w.str(layer.name());
    w.u64(layer.param_count());
    Tensor* weights = nullptr;
    Tensor* bias = nullptr;
    if (auto* conv = dynamic_cast<ConvLayer*>(&layer)) {
      weights = &conv->weights();
      bias = &conv->bias();
    } else if (auto* fc = dynamic_cast<FullyConnectedLayer*>(&layer)) {
      weights = &fc->weights();
      bias = &fc->bias();
    }
    if (!weights) {
      ADD_FAILURE() << "unexpected parameterized layer " << layer.name();
      continue;
    }
    for (float v : weights->data()) w.f32(v);
    for (float v : bias->data()) w.f32(v);
  }
  return std::move(w).take();
}

TEST(ModelIo, SaveWeightsMatchesPerElementReference) {
  std::vector<std::unique_ptr<Network>> nets;
  nets.push_back(build_tiny_cnn(23));
  nets.push_back(build_gendernet(13));
  for (const auto& net : nets) {
    SCOPED_TRACE(net->name());
    const util::Bytes saved = save_weights(*net);
    EXPECT_TRUE(saved == reference_weights(*net));
  }
}

TEST(ModelIo, MalformedDescriptionThrows) {
  EXPECT_THROW(parse_description(""), util::DecodeError);
  EXPECT_THROW(parse_description("layer x conv\n"), util::DecodeError);
  EXPECT_THROW(parse_description("model m\nlayer a bogus\n"),
               util::DecodeError);
  EXPECT_THROW(parse_description("model m\nlayer a conv in=1\n"),
               util::DecodeError);
  // Numbers must be whole, in-range tokens, and a layer's own config
  // check surfaces as a DecodeError too.
  const std::string head = "model m\nlayer x input shape=3x8x8\n";
  EXPECT_THROW(
      parse_description(head + "layer c conv in=3 out=4 k=abc s=1 p=0\n"),
      util::DecodeError);
  EXPECT_THROW(
      parse_description(head + "layer c conv in=3 out=4 k=3x s=1 p=0\n"),
      util::DecodeError);
  EXPECT_THROW(parse_description(head +
                                 "layer c conv in=3 out=4 "
                                 "k=99999999999999999999999 s=1 p=0\n"),
               util::DecodeError);
  EXPECT_THROW(parse_description(head + "layer f fc in=0 out=4\n"),
               util::DecodeError);
}

TEST(ModelIo, WeightsWrongNetworkThrows) {
  auto a = build_tiny_cnn(1);
  auto g = build_gendernet(2);
  auto blob = save_weights(*a);
  EXPECT_THROW(load_weights(*g, std::span(blob)), std::exception);
}

/// A weights file with the given layer count whose body is `entries`, the
/// per-layer records of save_weights' format.
util::Bytes weights_file(std::uint32_t count,
                         std::span<const std::uint8_t> entries) {
  util::BinaryWriter w;
  w.raw("OFWT");
  w.u32(1);
  w.u32(count);
  w.raw(entries);
  return std::move(w).take();
}

TEST(ModelIo, WeightsMalformedFilesThrow) {
  auto net = build_tiny_cnn(1);
  const util::Bytes whole = save_weights(*net);
  // The first parameterized layer's record alone, header stripped.
  std::size_t first = 0;
  while (net->layer(first).param_count() == 0) ++first;
  const util::Bytes one = save_weights(*net, first, first + 1);
  const auto entry = std::span<const std::uint8_t>(one).subspan(12);

  util::Bytes trailing = whole;
  trailing.push_back(0);
  EXPECT_THROW(load_weights(*net, std::span(trailing)), util::DecodeError);

  util::Bytes twice(entry.begin(), entry.end());
  twice.insert(twice.end(), entry.begin(), entry.end());
  EXPECT_THROW(load_weights(*net, weights_file(2, twice)),
               util::DecodeError);

  util::BinaryWriter w;
  w.str("no_such_layer");
  w.u64(0);
  const util::Bytes unknown = std::move(w).take();
  EXPECT_THROW(load_weights(*net, weights_file(1, unknown)),
               util::DecodeError);

  // Well-formed files that list only some layers still load: a single
  // record, and a rear-only file.
  EXPECT_NO_THROW(load_weights(*net, weights_file(1, entry)));
  EXPECT_NO_THROW(
      load_weights(*net, save_weights(*net, first + 1, net->size())));
}

}  // namespace
}  // namespace offload::nn
