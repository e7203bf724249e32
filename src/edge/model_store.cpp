#include "src/edge/model_store.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/crc32.h"
#include "src/util/hash.h"

namespace offload::edge {

void ModelStore::store_file(nn::ModelFile file) {
  cache_.clear();
  index(file.content);
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

void ModelStore::clear() {
  files_.clear();
  blobs_.clear();
  cache_.clear();
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
  return has_file(app + ".desc") &&
         (has_file(app + ".weights") || has_file(app + ".rear.weights"));
}

std::shared_ptr<nn::Network> ModelStore::instantiate(
    const std::string& app) const {
  if (auto it = cache_.find(app); it != cache_.end()) return it->second;
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
  cache_.emplace(app, net);
  return net;
}

ModelStore::Blob& ModelStore::index(
    const std::shared_ptr<const util::Bytes>& bytes) {
  for (Blob& blob : blobs_) {
    if (blob.bytes == bytes) return blob;
  }
  const std::uint32_t crc = util::crc32(*bytes);
  for (Blob& blob : blobs_) {
    if (blob.crc == crc && *blob.bytes == *bytes) {
      blob.bytes = bytes;
      return blob;
    }
  }
  return blobs_.emplace_back(Blob{bytes, crc, std::nullopt});
}

std::vector<ModelStore::Blob>::iterator ModelStore::lookup(
    std::uint64_t digest) {
  for (Blob& blob : blobs_) {
    if (!blob.digest) blob.digest = util::fnv1a(*blob.bytes);
  }
  return std::find_if(blobs_.begin(), blobs_.end(),
                      [&](const Blob& blob) { return blob.digest == digest; });
}

std::uint64_t ModelStore::digest(const nn::ModelFile& file) {
  Blob& blob = index(file.content);
  if (!blob.digest) blob.digest = util::fnv1a(*blob.bytes);
  return *blob.digest;
}

std::shared_ptr<const util::Bytes> ModelStore::find_blob(std::uint64_t digest,
                                                         bool* corrupt) {
  if (corrupt) *corrupt = false;
  auto it = lookup(digest);
  if (it == blobs_.end()) return nullptr;
  if (util::crc32(*it->bytes) != it->crc) {
    blobs_.erase(it);
    if (corrupt) *corrupt = true;
    return nullptr;
  }
  return it->bytes;
}

std::uint64_t ModelStore::blob_bytes() const {
  std::uint64_t n = 0;
  for (const Blob& blob : blobs_) n += blob.bytes->size();
  return n;
}

bool ModelStore::corrupt_blob(std::uint64_t digest, std::size_t at) {
  auto it = lookup(digest);
  if (it == blobs_.end() || at >= it->bytes->size()) return false;
  util::Bytes damaged = *it->bytes;
  damaged[at] ^= 0x5a;
  it->bytes = std::make_shared<const util::Bytes>(std::move(damaged));
  return true;
}

}  // namespace offload::edge
