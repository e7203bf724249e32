#include "src/edge/model_store.h"

#include <stdexcept>

#include "src/util/crc32.h"
#include "src/util/hash.h"

namespace offload::edge {

void ModelStore::store_file(nn::ModelFile file) {
  cache_.clear();
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
      nn::parse_description(util::to_string(std::span(desc->content))));
  bool any_weights = false;
  if (const nn::ModelFile* w = find(app + ".weights")) {
    nn::load_weights(*net, std::span(w->content));
    any_weights = true;
  }
  if (const nn::ModelFile* w = find(app + ".rear.weights")) {
    nn::load_weights(*net, std::span(w->content));
    any_weights = true;
  }
  if (!any_weights) {
    throw std::runtime_error("ModelStore: no weights for app '" + app + "'");
  }
  cache_.emplace(app, net);
  return net;
}

void BlobStore::resolve() const {
  for (auto& blob : pending_) {
    const std::uint64_t digest = util::fnv1a(std::span(blob.content));
    blobs_[digest] = std::move(blob);
  }
  pending_.clear();
}

void BlobStore::put(util::Bytes content) {
  resolve();
  Blob blob;
  blob.crc = util::crc32(std::span(content));
  blob.content = std::move(content);
  pending_.push_back(std::move(blob));
}

const util::Bytes* BlobStore::find(std::uint64_t digest, bool* corrupt) {
  resolve();
  if (corrupt) *corrupt = false;
  auto it = blobs_.find(digest);
  if (it == blobs_.end()) return nullptr;
  if (util::crc32(std::span(it->second.content)) != it->second.crc) {
    blobs_.erase(it);
    if (corrupt) *corrupt = true;
    return nullptr;
  }
  return &it->second.content;
}

bool BlobStore::contains(std::uint64_t digest) const {
  resolve();
  return blobs_.find(digest) != blobs_.end();
}

void BlobStore::clear() {
  blobs_.clear();
  pending_.clear();
}

std::size_t BlobStore::blob_count() const {
  resolve();
  return blobs_.size();
}

std::uint64_t BlobStore::total_bytes() const {
  resolve();
  std::uint64_t n = 0;
  for (const auto& [digest, blob] : blobs_) n += blob.content.size();
  return n;
}

bool BlobStore::corrupt_blob(std::uint64_t digest) {
  resolve();
  auto it = blobs_.find(digest);
  if (it == blobs_.end() || it->second.content.empty()) return false;
  it->second.content[0] ^= 0x5a;
  return true;
}

}  // namespace offload::edge
