// Unit tests for the edge layer: ModelStore, BrowserHost ML bindings, and
// the model-host snapshot behaviour (the pre-send optimization: the model
// never rides inside a snapshot).
#include <gtest/gtest.h>

#include <bit>
#include <utility>

#include "src/edge/browser_host.h"
#include "src/edge/edge_server.h"
#include "src/edge/model_store.h"
#include "src/edge/protocol.h"
#include "src/util/crc32.h"
#include "src/util/hash.h"
#include "src/jsvm/snapshot.h"
#include "src/nn/models.h"
#include "tests/crc32_reference.h"

namespace offload::edge {
namespace {

std::shared_ptr<ModelStore> store_with_tiny() {
  auto store = std::make_shared<ModelStore>();
  auto net = nn::build_tiny_cnn(17);
  store->store_files(nn::model_files(*net));
  return store;
}

nn::Tensor test_image() {
  util::Pcg32 rng(8);
  return nn::Tensor::random_uniform(nn::Shape{3, 32, 32}, rng, 0.0f, 1.0f);
}

TEST(ModelStoreTest, StoreFindReplace) {
  ModelStore store;
  store.store_file({"a.desc", {1, 2, 3}});
  EXPECT_TRUE(store.has_file("a.desc"));
  EXPECT_FALSE(store.has_file("b.desc"));
  EXPECT_EQ(store.total_bytes(), 3u);
  store.store_file({"a.desc", {9}});
  EXPECT_EQ(store.total_bytes(), 1u);
  EXPECT_EQ(store.file_count(), 1u);
}

TEST(ModelStoreTest, InstantiateFromFiles) {
  auto store = store_with_tiny();
  EXPECT_TRUE(store->can_instantiate("tinycnn"));
  auto net = store->instantiate("tinycnn");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->name(), "tinycnn");
  // Cached: same instance on second call.
  EXPECT_EQ(store->instantiate("tinycnn").get(), net.get());
  // Matches the original network bit-exactly.
  auto original = nn::build_tiny_cnn(17);
  nn::Tensor in = test_image();
  EXPECT_EQ(nn::Tensor::max_abs_diff(net->forward(in),
                                     original->forward(in)),
            0.0f);
}

TEST(ModelStoreTest, MissingFilesThrow) {
  ModelStore store;
  EXPECT_FALSE(store.can_instantiate("nope"));
  EXPECT_THROW(store.instantiate("nope"), std::runtime_error);
  auto net = nn::build_tiny_cnn(17);
  auto files = nn::model_files(*net);
  store.store_file(files[0]);  // description only, no weights
  EXPECT_THROW(store.instantiate("tinycnn"), std::runtime_error);
}

TEST(ModelStoreTest, RearOnlyInstantiation) {
  ModelStore store;
  auto net = nn::build_tiny_cnn(17);
  store.store_files(nn::model_files_rear_only(*net, 2));
  EXPECT_TRUE(store.can_instantiate("tinycnn"));
  auto rebuilt = store.instantiate("tinycnn");
  nn::Tensor in = test_image();
  nn::Tensor feature = net->forward_front(in, 2);
  // Rear matches; front differs (weights withheld).
  EXPECT_EQ(nn::Tensor::max_abs_diff(net->forward_rear(feature, 2),
                                     rebuilt->forward_rear(feature, 2)),
            0.0f);
  // The withheld front is exactly zero: the server learns nothing of it,
  // and in-place instantiation never leaves a parameter unwritten.
  std::uint64_t front_params = 0;
  for (std::size_t i = 0; i <= 2; ++i) {
    for (std::span<const float> span :
         std::as_const(rebuilt->layer(i)).param_spans()) {
      for (float v : span) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(v), 0u)
            << rebuilt->layer(i).name();
        ++front_params;
      }
    }
  }
  EXPECT_GT(front_params, 0u);
}

std::uint64_t digest_of(const util::Bytes& content) {
  return util::fnv1a(std::span(content));
}

util::Bytes bytes_of(const nn::ModelFile& file) {
  return {file.bytes().begin(), file.bytes().end()};
}

TEST(ModelStoreDedup, CountsAndFindsRightAfterStore) {
  ModelStore store;
  const util::Bytes a{1, 2, 3};
  const util::Bytes b{4, 5, 6, 7};
  store.store_file({"a", a});
  store.store_file({"b", b});
  // No digest lookup yet: the index already counts both buffers.
  EXPECT_EQ(store.blob_count(), 2u);
  EXPECT_EQ(store.blob_bytes(), 7u);
  EXPECT_NE(store.find_blob(digest_of(a)), nullptr);
  EXPECT_EQ(store.find_blob(digest_of(util::Bytes{9})), nullptr);
  const nn::ModelFile* found = store.find_blob(digest_of(b));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(bytes_of(*found), b);
}

TEST(ModelStoreDedup, IdenticalContentIsOneEntry) {
  ModelStore store;
  const util::Bytes a{1, 2, 3};
  store.store_file({"x", a});
  store.store_file({"y", a});
  EXPECT_EQ(store.file_count(), 2u);
  EXPECT_EQ(store.blob_count(), 1u);
  EXPECT_EQ(store.blob_bytes(), 3u);
}

TEST(ModelStoreDedup, CorruptionBeforeTheFirstDigestIsCaught) {
  ModelStore store;
  const util::Bytes a{1, 2, 3};
  store.store_file({"a", a});
  ASSERT_TRUE(store.corrupt_blob(digest_of(a)));
  // The named file keeps the intact buffer; only the index entry rotted.
  EXPECT_EQ(bytes_of(*store.find("a")), a);
  bool corrupt = false;
  EXPECT_EQ(store.find_blob(digest_of(a), &corrupt), nullptr);
  EXPECT_TRUE(corrupt);
  EXPECT_EQ(store.blob_count(), 0u);
}

/// Random content of 3 MiB + 5 bytes: one-shot CRCs of it run on the pool
/// in 1 MiB blocks.
util::Bytes large_model_file() {
  util::Pcg32 rng(61);
  util::Bytes bytes((std::size_t{3} << 20) + 5);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  return bytes;
}

/// One byte in the first, a middle and the last 1 MiB block.
std::vector<std::size_t> damage_offsets(std::size_t size) {
  return {0, size / 2, size - 1};
}

TEST(ModelStoreDedup, CorruptionInAnyBlockOfALargeFileIsCaught) {
  const util::Bytes big = large_model_file();
  for (std::size_t at : damage_offsets(big.size())) {
    ModelStore store;
    store.store_file({"big.weights", big});
    ASSERT_NE(store.find_blob(digest_of(big)), nullptr);
    ASSERT_TRUE(store.corrupt_blob(digest_of(big), at));
    bool corrupt = false;
    EXPECT_EQ(store.find_blob(digest_of(big), &corrupt), nullptr)
        << "byte " << at;
    EXPECT_TRUE(corrupt) << "byte " << at;
    EXPECT_EQ(store.blob_count(), 0u);
  }
}

TEST(ModelStoreDedup, ClearDropsUndigestedEntries) {
  ModelStore store;
  const util::Bytes a{1, 2, 3};
  store.store_file({"a", a});
  store.clear();
  EXPECT_EQ(store.blob_count(), 0u);
  EXPECT_EQ(store.blob_bytes(), 0u);
  EXPECT_EQ(store.find_blob(digest_of(a)), nullptr);
}

TEST(ModelStoreDedup, UploadAndIndexShareOneBuffer) {
  auto net = nn::build_tiny_cnn(17);
  ModelFilesPayload sent;
  sent.files = nn::model_files(*net);
  // Copying a payload shares each file's buffer.
  const ModelFilesPayload copy = sent;
  ASSERT_EQ(copy.files.size(), sent.files.size());
  for (std::size_t i = 0; i < sent.files.size(); ++i) {
    EXPECT_TRUE(copy.files[i].same_bytes(sent.files[i]));
  }

  // A received upload is stored and indexed as one buffer per file.
  const util::Bytes wire = sent.encode();
  ModelStore store;
  store.store_files(ModelFilesPayload::decode(std::span(wire)).files);
  for (const nn::ModelFile& f : sent.files) {
    const nn::ModelFile* named = store.find(f.name);
    ASSERT_NE(named, nullptr);
    const nn::ModelFile* indexed = store.find_blob(digest_of(bytes_of(f)));
    ASSERT_NE(indexed, nullptr);
    EXPECT_TRUE(indexed->same_bytes(*named));
  }
}

TEST(ModelStoreDedup, ReplacedFileStaysOfferable) {
  ModelStore store;
  const util::Bytes old_bytes{1, 2, 3};
  store.store_file({"m.weights", old_bytes});
  store.store_file({"m.weights", util::Bytes{7, 8}});
  EXPECT_EQ(store.file_count(), 1u);
  EXPECT_EQ(bytes_of(*store.find("m.weights")), (util::Bytes{7, 8}));
  // The replaced content is still served by digest until a crash.
  const nn::ModelFile* blob = store.find_blob(digest_of(old_bytes));
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(bytes_of(*blob), old_bytes);
  store.clear();
  EXPECT_EQ(store.find_blob(digest_of(old_bytes)), nullptr);
}

TEST(BrowserHostTest, InferenceMatchesDirectExecution) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  host.add_image("input", test_image());
  host.interp().eval_program(
      "var model = loadModel('tinycnn');"
      "var scores = model.inference(loadImage('input'));"
      "var best = 0;"
      "for (var i = 1; i < scores.length; i++) {"
      "  if (scores[i] > scores[best]) { best = i; }"
      "}");
  auto net = nn::build_tiny_cnn(17);
  auto expected = net->forward(test_image());
  double best = jsvm::to_number(*host.interp().globals()->find("best"));
  EXPECT_EQ(static_cast<std::int64_t>(best), expected.argmax());
  EXPECT_GT(host.pending_compute_seconds(), 0.0);
}

TEST(BrowserHostTest, SetPartitionCutValidatesAgainstNodeCount) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  const std::size_t nodes = store_with_tiny()->instantiate("tinycnn")->size();
  // Every in-range cut (including the final node = fully local) is fine.
  host.set_partition_cut("tinycnn", 0);
  host.set_partition_cut("tinycnn", nodes - 1);
  // One past the end is rejected with the typed error, message intact.
  try {
    host.set_partition_cut("tinycnn", nodes);
    FAIL() << "out-of-range cut was accepted";
  } catch (const InvalidCutError& e) {
    EXPECT_NE(std::string(e.what()).find("tinycnn"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(std::to_string(nodes)),
              std::string::npos);
  }
  EXPECT_THROW(host.set_partition_cut("tinycnn", SIZE_MAX), InvalidCutError);
  // InvalidCutError is an out_of_range, so legacy catch sites still work.
  EXPECT_THROW(host.set_partition_cut("tinycnn", nodes + 7),
               std::out_of_range);
  // Unknown models cannot be validated yet: the cut is recorded and
  // checked lazily when the model becomes instantiable (load time).
  host.set_partition_cut("not_yet_uploaded", 12345);
}

TEST(BrowserHostTest, ComputeAccountingConsumable) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  host.add_image("input", test_image());
  host.interp().eval_program(
      "var model = loadModel('tinycnn');"
      "model.inference(loadImage('input'));");
  auto net = nn::build_tiny_cnn(17);
  double expected =
      nn::DeviceProfile::embedded_client().network_time_s(*net);
  EXPECT_NEAR(host.consume_compute_seconds(), expected, expected * 1e-9);
  EXPECT_EQ(host.consume_compute_seconds(), 0.0);  // reset after read
}

TEST(BrowserHostTest, PartialInferenceComposition) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  host.add_image("input", test_image());
  host.set_partition_cut("tinycnn", 2);
  host.interp().eval_program(
      "var model = loadModel('tinycnn');"
      "var feature = model.inference_front(loadImage('input'));"
      "var scores = model.inference_rear(feature);");
  auto net = nn::build_tiny_cnn(17);
  auto expected = net->forward(test_image());
  auto scores = std::get<jsvm::TypedArrayPtr>(
      *host.interp().globals()->find("scores"));
  ASSERT_EQ(static_cast<std::int64_t>(scores->data.size()),
            expected.elements());
  for (std::int64_t i = 0; i < expected.elements(); ++i) {
    EXPECT_EQ(scores->data[static_cast<std::size_t>(i)], expected[i]) << i;
  }
}

TEST(BrowserHostTest, PartialWithoutCutConfiguredThrows) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  host.add_image("input", test_image());
  EXPECT_THROW(host.interp().eval_program(
                   "var model = loadModel('tinycnn');"
                   "model.inference_front(loadImage('input'));"),
               jsvm::JsError);
}

TEST(BrowserHostTest, WrongInputSizeThrows) {
  BrowserHost host(nn::DeviceProfile::embedded_client(), store_with_tiny());
  EXPECT_THROW(host.interp().eval_program(
                   "var model = loadModel('tinycnn');"
                   "model.inference(Float32Array(5));"),
               jsvm::JsError);
}

TEST(BrowserHostTest, UnknownModelThrows) {
  BrowserHost host(nn::DeviceProfile::embedded_client(),
                   std::make_shared<ModelStore>());
  EXPECT_THROW(host.interp().eval_program("loadModel('ghost');"),
               jsvm::JsError);
}

TEST(BrowserHostTest, ModelExcludedFromSnapshotAndRestoredByName) {
  // The heart of pre-sending: snapshot a realm holding a model + feature,
  // restore on a *different* host with its own store, keep working.
  auto store = store_with_tiny();
  BrowserHost client(nn::DeviceProfile::embedded_client(), store);
  client.add_image("input", test_image());
  client.set_partition_cut("tinycnn", 2);
  client.interp().eval_program(
      "var model = loadModel('tinycnn');"
      "var feature = model.inference_front(loadImage('input'));");
  jsvm::SnapshotResult snap = jsvm::capture_snapshot(client.interp());
  // Mostly feature data; the ~0.5 MB model is not inside.
  auto tiny = nn::build_tiny_cnn(17);
  EXPECT_LT(snap.stats.total_bytes, tiny->param_bytes() / 2);
  EXPECT_LT(snap.stats.non_feature_bytes(), 5'000u);
  EXPECT_NE(snap.program.find("__loadModel(\"tinycnn\")"), std::string::npos);

  BrowserHost server(nn::DeviceProfile::edge_server(), store);
  server.set_partition_cut("tinycnn", 2);
  jsvm::restore_snapshot(server.interp(), snap.program);
  server.interp().eval_program("var scores = model.inference_rear(feature);");
  auto net = nn::build_tiny_cnn(17);
  auto expected = net->forward(test_image());
  auto scores = std::get<jsvm::TypedArrayPtr>(
      *server.interp().globals()->find("scores"));
  EXPECT_EQ(scores->data[0], expected[0]);
}

TEST(ProtocolTest, ModelFilesPayloadRoundTrip) {
  ModelFilesPayload p;
  p.files.push_back({"m.desc", {1, 2}});
  p.files.push_back({"m.weights", {3, 4, 5}});
  auto wire = p.encode();
  ModelFilesPayload d = ModelFilesPayload::decode(std::span(wire));
  ASSERT_EQ(d.files.size(), 2u);
  EXPECT_EQ(d.files[1].name, "m.weights");
  EXPECT_EQ(bytes_of(d.files[1]), (util::Bytes{3, 4, 5}));
}

/// A list payload that is nothing but a huge entry count. A client can
/// stamp a valid CRC on it, so the decoder itself must reject the count
/// with a typed error before reserving anything.
util::Bytes huge_count_payload() {
  util::BinaryWriter w;
  w.varint(std::uint64_t{1} << 62);
  return std::move(w).take();
}

TEST(ProtocolTest, ModelFilesPayloadRejectsCountBeyondPayload) {
  const util::Bytes wire = huge_count_payload();
  EXPECT_THROW(ModelFilesPayload::decode(std::span(wire)), util::DecodeError);
}

TEST(ProtocolTest, ModelOfferPayloadRejectsCountBeyondPayload) {
  const util::Bytes wire = huge_count_payload();
  EXPECT_THROW(ModelOfferPayload::decode(std::span(wire)), util::DecodeError);
}

TEST(ProtocolTest, FileListPayloadRejectsCountBeyondPayload) {
  const util::Bytes wire = huge_count_payload();
  EXPECT_THROW(FileListPayload::decode(std::span(wire)), util::DecodeError);
}

TEST(ProtocolTest, SnapshotPayloadRoundTrip) {
  SnapshotPayload p;
  p.cut = 7;
  p.program = "(function(){})();";
  auto wire = p.encode();
  SnapshotPayload d = SnapshotPayload::decode(std::span(wire));
  EXPECT_EQ(d.cut, 7u);
  EXPECT_EQ(d.program, p.program);
}

TEST(ProtocolTest, PayloadCrcDetectsCorruption) {
  net::Message m;
  m.type = net::MessageType::kSnapshot;
  m.name = "tiny";
  util::Bytes bytes{1, 2, 3, 4, 5};
  m.payload = bytes;
  m.crc = util::crc32(std::span<const std::uint8_t>(bytes));
  EXPECT_TRUE(payload_intact(m));
  EXPECT_NO_THROW(verify_payload(m));

  bytes[2] ^= 0x40;  // damaged in flight; the stamped CRC is stale
  m.payload = bytes;
  EXPECT_FALSE(payload_intact(m));
  EXPECT_THROW(verify_payload(m), PayloadCorruptError);

  net::Message empty;  // payload-free messages are trivially intact
  EXPECT_TRUE(payload_intact(empty));
}

TEST(ProtocolTest, PayloadCrcDetectsCorruptionInAnyBlockOfLargeModelFiles) {
  ModelFilesPayload files;
  files.files.push_back({"big.weights", large_model_file()});
  net::Message m;
  m.type = net::MessageType::kModelFiles;
  m.name = "big";
  util::Bytes bytes = files.encode();
  m.payload = bytes;
  m.crc = test_util::bytewise_crc32(bytes);  // stamped by one serial pass
  EXPECT_NO_THROW(verify_payload(m));
  for (std::size_t at : damage_offsets(bytes.size())) {
    bytes[at] ^= 0x40;
    m.payload = bytes;
    EXPECT_THROW(verify_payload(m), PayloadCorruptError) << "byte " << at;
    bytes[at] ^= 0x40;
  }
  m.payload = bytes;
  EXPECT_NO_THROW(verify_payload(m));
}

/// True if every byte of `file` lies inside `body`.
bool views_into(const nn::ModelFile& file, const util::SharedBytes& body) {
  return file.bytes().data() >= body.begin() &&
         file.bytes().data() + file.size() <= body.end();
}

TEST(ProtocolTest, WrittenBundleCarriesItsCrcAndEncodesLikeEncode) {
  auto net = nn::build_tiny_cnn(17);
  for (std::size_t cut : {SIZE_MAX, std::size_t{2}}) {
    SCOPED_TRACE(cut);
    const ModelFilesPayload::Written written =
        ModelFilesPayload::write(*net, cut);
    ASSERT_TRUE(written.body.crc().has_value());
    EXPECT_EQ(*written.body.crc(), test_util::bytewise_crc32(written.body));

    ModelFilesPayload same;
    same.files = cut == SIZE_MAX ? nn::model_files(*net)
                                 : nn::model_files_rear_only(*net, cut);
    EXPECT_EQ(util::Bytes(written.body.begin(), written.body.end()),
              same.encode());
    ASSERT_EQ(written.files.size(), same.files.size());
    for (std::size_t i = 0; i < same.files.size(); ++i) {
      EXPECT_EQ(written.files[i].name, same.files[i].name);
      EXPECT_EQ(written.files[i].crc(),
                test_util::bytewise_crc32(written.files[i].bytes()));
      EXPECT_TRUE(views_into(written.files[i], written.body));
    }

    // Endpoint::send stamps the CRC the body carries.
    sim::Simulation sim;
    auto channel = net::Channel::make(sim, net::ChannelConfig{});
    std::optional<net::Message> received;
    channel->b().set_handler([&](const net::Message& m) { received = m; });
    net::Message msg;
    msg.type = net::MessageType::kModelFiles;
    msg.name = "tinycnn";
    msg.payload = written.body;
    channel->a().send(std::move(msg));
    sim.run();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->crc, test_util::bytewise_crc32(written.body));
    EXPECT_EQ(received->payload.buffer(), written.body.buffer());
  }
}

TEST(ProtocolTest, ModelFilesDecodeVerifiesAndViewsInOnePass) {
  // 0, 1 and 2 files, empty ones included, and one large enough to be
  // CRC'd block-parallel.
  std::vector<std::vector<nn::ModelFile>> bundles(5);
  bundles[1].push_back({"a.desc", util::Bytes{}});
  bundles[2].push_back({"m.desc", util::Bytes{1, 2}});
  bundles[2].push_back({"m.weights", util::Bytes{}});
  bundles[3].push_back({"e.desc", util::Bytes{}});
  bundles[3].push_back({"e.weights", util::Bytes{}});
  bundles[4].push_back({"big.desc", util::Bytes{9}});
  bundles[4].push_back({"big.weights", large_model_file()});
  for (const auto& files : bundles) {
    SCOPED_TRACE(files.size());
    ModelFilesPayload sent;
    sent.files = files;
    const util::Bytes wire = sent.encode();
    net::Message m;
    m.type = net::MessageType::kModelFiles;
    m.name = "m";
    m.payload = wire;
    m.crc = test_util::bytewise_crc32(wire);
    const ModelFilesPayload got = ModelFilesPayload::decode(m);
    ASSERT_EQ(got.files.size(), files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_EQ(got.files[i].name, files[i].name);
      EXPECT_EQ(bytes_of(got.files[i]), bytes_of(files[i]));
      EXPECT_EQ(got.files[i].crc(), files[i].crc());
      EXPECT_TRUE(views_into(got.files[i], m.payload));
    }
    m.crc ^= 1;  // any other stamped CRC is a mismatch
    EXPECT_THROW(ModelFilesPayload::decode(m), PayloadCorruptError);
  }
}

TEST(ProtocolTest, DamagedPreSendByteEndsInCorruptPayload) {
  // A byte damaged in flight anywhere in a kModelFiles body, the framing
  // included, draws "corrupt_payload:" and stores nothing, whether the
  // damaged body still parses or not.
  ModelFilesPayload files;
  files.files.push_back({"m.desc", util::Bytes{1, 2, 3}});
  files.files.push_back({"m.weights", util::Bytes(300, 7)});
  const util::Bytes wire = files.encode();
  // Layout: count | 6 "m.desc" | 3 body | 9 "m.weights" | 300 (2 bytes) body
  struct Damage {
    const char* what;
    std::size_t at;
  };
  const Damage damages[] = {
      {"count", 0},         {"name length", 1},  {"name", 3},
      {"length varint", 8}, {"body", 10},        {"second name", 14},
      {"two-byte length varint", 23},            {"last byte", wire.size() - 1},
  };
  for (const Damage& d : damages) {
    for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      SCOPED_TRACE(std::string(d.what) + " mask " + std::to_string(mask));
      sim::Simulation sim;
      auto channel = net::Channel::make(sim, net::ChannelConfig{});
      EdgeServer server(sim, channel->b());
      std::vector<std::string> replies;
      channel->a().set_handler(
          [&](const net::Message& m) { replies.push_back(m.name); });
      channel->set_fault_hook(true, [&](const net::Message&) {
        net::FaultDecision fault;
        fault.corrupt_mask = mask;
        fault.corrupt_index = d.at;
        return fault;
      });
      net::Message msg;
      msg.type = net::MessageType::kModelFiles;
      msg.name = "m";
      msg.payload = wire;
      channel->a().send(std::move(msg));
      sim.run();
      ASSERT_EQ(replies.size(), 1u);
      EXPECT_EQ(replies[0], "corrupt_payload:m");
      EXPECT_EQ(server.stats().corrupt_rejected, 1);
      EXPECT_EQ(server.stats().presends_rejected, 0);
      EXPECT_EQ(server.model_store().file_count(), 0u);
      EXPECT_EQ(server.model_store().blob_count(), 0u);
    }
  }
}

}  // namespace
}  // namespace offload::edge
