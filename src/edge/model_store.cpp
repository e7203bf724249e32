#include "src/edge/model_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/util/crc32.h"
#include "src/util/hash.h"

namespace offload::edge {

void ModelStore::store_file(nn::ModelFile file) {
  std::erase_if(networks_,
                [](const auto& entry) { return !entry.second.kept; });
  index(file);
  for (auto& f : files_) {
    if (f.name == file.name) {
      f = std::move(file);
      return;
    }
  }
  files_.push_back(std::move(file));
}

void ModelStore::store_files(std::vector<nn::ModelFile> files) {
  for (auto& f : files) store_file(std::move(f));
}

void ModelStore::keep_network(const std::string& app,
                              std::shared_ptr<nn::Network> net) {
  networks_[app] = {std::move(net), /*kept=*/true};
}

void ModelStore::clear() {
  files_.clear();
  blobs_.clear();
  networks_.clear();
}

bool ModelStore::has_file(const std::string& name) const {
  return find(name) != nullptr;
}

const nn::ModelFile* ModelStore::find(const std::string& name) const {
  for (const auto& f : files_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::uint64_t ModelStore::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& f : files_) n += f.size();
  return n;
}

bool ModelStore::can_instantiate(const std::string& app) const {
  if (auto it = networks_.find(app); it != networks_.end() && it->second.kept) {
    return true;
  }
  return has_file(app + ".desc") &&
         (has_file(app + ".weights") || has_file(app + ".rear.weights"));
}

std::shared_ptr<nn::Network> ModelStore::instantiate(
    const std::string& app) const {
  if (auto it = networks_.find(app); it != networks_.end()) {
    return it->second.net;
  }
  const nn::ModelFile* desc = find(app + ".desc");
  if (!desc) {
    throw std::runtime_error("ModelStore: no description for app '" + app +
                             "' (model not pre-sent?)");
  }
  auto net = std::shared_ptr<nn::Network>(
      nn::parse_description(util::to_string(desc->bytes())));
  bool any_weights = false;
  if (const nn::ModelFile* w = find(app + ".weights")) {
    nn::load_weights(*net, w->bytes());
    any_weights = true;
  }
  if (const nn::ModelFile* w = find(app + ".rear.weights")) {
    nn::load_weights(*net, w->bytes());
    any_weights = true;
  }
  if (!any_weights) {
    throw std::runtime_error("ModelStore: no weights for app '" + app + "'");
  }
  networks_.emplace(app, CachedNetwork{net, /*kept=*/false});
  return net;
}

ModelStore::Blob& ModelStore::index(const nn::ModelFile& file) {
  for (Blob& blob : blobs_) {
    if (blob.file.same_bytes(file)) return blob;
  }
  const std::span<const std::uint8_t> bytes = file.bytes();
  for (Blob& blob : blobs_) {
    const std::span<const std::uint8_t> held = blob.file.bytes();
    if (blob.file.crc() == file.crc() && held.size() == bytes.size() &&
        (bytes.empty() ||
         std::memcmp(held.data(), bytes.data(), bytes.size()) == 0)) {
      blob.file = file;
      return blob;
    }
  }
  return blobs_.emplace_back(Blob{file, std::nullopt});
}

std::vector<ModelStore::Blob>::iterator ModelStore::lookup(
    std::uint64_t digest) {
  for (Blob& blob : blobs_) {
    if (!blob.digest) blob.digest = util::fnv1a(blob.file.bytes());
  }
  return std::find_if(blobs_.begin(), blobs_.end(),
                      [&](const Blob& blob) { return blob.digest == digest; });
}

std::uint64_t ModelStore::digest(const nn::ModelFile& file) {
  Blob& blob = index(file);
  if (!blob.digest) blob.digest = util::fnv1a(blob.file.bytes());
  return *blob.digest;
}

const nn::ModelFile* ModelStore::find_blob(std::uint64_t digest,
                                           bool* corrupt) {
  if (corrupt) *corrupt = false;
  auto it = lookup(digest);
  if (it == blobs_.end()) return nullptr;
  if (util::crc32(it->file.bytes()) != it->file.crc()) {
    blobs_.erase(it);
    if (corrupt) *corrupt = true;
    return nullptr;
  }
  return &it->file;
}

std::uint64_t ModelStore::blob_bytes() const {
  std::uint64_t n = 0;
  for (const Blob& blob : blobs_) n += blob.file.size();
  return n;
}

bool ModelStore::corrupt_blob(std::uint64_t digest, std::size_t at) {
  auto it = lookup(digest);
  if (it == blobs_.end() || at >= it->file.size()) return false;
  const std::span<const std::uint8_t> bytes = it->file.bytes();
  util::Bytes damaged(bytes.begin(), bytes.end());
  damaged[at] ^= 0x5a;
  // The damaged copy keeps the CRC recorded for the intact bytes.
  auto buffer = std::make_shared<const util::Bytes>(std::move(damaged));
  it->file = nn::ModelFile(it->file.name, buffer, 0, buffer->size(),
                           it->file.crc());
  return true;
}

}  // namespace offload::edge
