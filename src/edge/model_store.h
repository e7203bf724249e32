// Storage for pre-sent NN model files (Section III.B.1). The client pushes
// model files at app start; the edge server stores them and ACKs. When a
// snapshot later calls __loadModel("<app>"), the store instantiates the
// network from the stored description + weights.
// It is also the host's dedup cache: named files and the dedup index below
// share one immutable buffer per file.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/nn/model_io.h"
#include "src/nn/network.h"

namespace offload::edge {

class ModelStore {
 public:
  /// Add or replace a file, and index its buffer. Invalidates any cached
  /// network built from it.
  void store_file(nn::ModelFile file);
  void store_files(std::vector<nn::ModelFile> files);

  /// Drop every stored file, index entry and cached network (a server
  /// crash loses the store; clients must pre-send again).
  void clear();

  bool has_file(const std::string& name) const;
  const nn::ModelFile* find(const std::string& name) const;
  std::uint64_t total_bytes() const;
  std::size_t file_count() const { return files_.size(); }
  /// Every stored file, in insertion order (tier relays push an app's
  /// files up-tier by filtering on the "<app>." name prefix).
  const std::vector<nn::ModelFile>& files() const { return files_; }

  /// True if enough files exist to instantiate `app` (description plus
  /// full or rear weights).
  bool can_instantiate(const std::string& app) const;

  /// Build the network for `app` from "<app>.desc" plus "<app>.weights"
  /// and/or "<app>.rear.weights". Layers with no stored weights keep their
  /// default (zero) parameters — which is exactly the information the
  /// privacy scheme denies the server. Cached; throws std::runtime_error
  /// if required files are missing.
  std::shared_ptr<nn::Network> instantiate(const std::string& app) const;

  // --- Dedup index. One entry per distinct content stored since the last
  // clear(): an entry outlives the replacement of its file by name. Each
  // records its buffer's CRC at insert; the fnv1a digest is taken on the
  // first digest lookup, so a host that never offers never hashes.

  /// The fnv1a digest of `file`'s content (what a kModelOffer carries),
  /// indexing its buffer first if no stored file shares it.
  std::uint64_t digest(const nn::ModelFile& file);

  /// The indexed buffer whose content has fnv1a `digest`, or nullptr. A
  /// buffer that no longer matches its recorded CRC is evicted and reported
  /// through `corrupt` (when non-null): callers treat it as a miss, so the
  /// client re-uploads instead of the server instantiating a bad network.
  std::shared_ptr<const util::Bytes> find_blob(std::uint64_t digest,
                                               bool* corrupt = nullptr);

  std::size_t blob_count() const { return blobs_.size(); }
  std::uint64_t blob_bytes() const;

  /// Fault/test hook: rot byte `at` of the entry for `digest` so the next
  /// find_blob() fails its CRC check. The entry is pointed at a damaged
  /// private copy; stored files keep the intact buffer. False if `digest`
  /// is not indexed or its content has no byte `at`.
  bool corrupt_blob(std::uint64_t digest, std::size_t at = 0);

 private:
  struct Blob {
    std::shared_ptr<const util::Bytes> bytes;
    std::uint32_t crc = 0;
    std::optional<std::uint64_t> digest;  ///< set on the first lookup
  };
  /// The entry for `bytes`' content, added if new. Identical content is one
  /// entry, holding the newest buffer.
  Blob& index(const std::shared_ptr<const util::Bytes>& bytes);
  /// The entry whose content has `digest`, digesting every entry first.
  std::vector<Blob>::iterator lookup(std::uint64_t digest);

  std::vector<nn::ModelFile> files_;
  std::vector<Blob> blobs_;
  mutable std::unordered_map<std::string, std::shared_ptr<nn::Network>> cache_;
};

}  // namespace offload::edge
