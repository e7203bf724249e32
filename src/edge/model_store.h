// Storage for pre-sent NN model files (Section III.B.1). The client pushes
// model files at app start; the edge server stores them and ACKs. When a
// snapshot later calls __loadModel("<app>"), the store instantiates the
// network from the stored description + weights.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/nn/model_io.h"
#include "src/nn/network.h"

namespace offload::edge {

class ModelStore {
 public:
  /// Add or replace a file. Invalidates any cached network built from it.
  void store_file(nn::ModelFile file);
  void store_files(std::vector<nn::ModelFile> files);

  /// Drop every stored file and cached network (a server crash loses the
  /// store; clients must pre-send again).
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

 private:
  std::vector<nn::ModelFile> files_;
  mutable std::unordered_map<std::string, std::shared_ptr<nn::Network>> cache_;
};

/// Content-addressed blob cache for pre-sent model files, keyed by the
/// fnv1a digest of their content (the digest a client offers). Shared by
/// every client of one server; survives until a crash wipes it. Each blob's
/// CRC is recorded at insert time and re-verified on lookup, so silent disk
/// corruption downgrades to a cache miss (the client re-uploads) instead of
/// serving a bad network.
///
/// Only digest offers read the cache, so put() defers the digest: a blob
/// is hashed by the next call of any other member (or the next put), which
/// files every pending blob under its digest first.
class BlobStore {
 public:
  /// Cache `content` under its fnv1a digest (replacing an equal digest).
  void put(util::Bytes content);

  /// The cached bytes, or nullptr when absent. A blob whose bytes no
  /// longer match their recorded CRC is evicted and reported through
  /// `corrupt` (when non-null) — callers must treat it as a miss.
  const util::Bytes* find(std::uint64_t digest, bool* corrupt = nullptr);

  bool contains(std::uint64_t digest) const;

  /// Drop everything, pending blobs included (a crash loses the cache with
  /// the process).
  void clear();

  std::size_t blob_count() const;
  std::uint64_t total_bytes() const;

  /// Fault/test hook: flip one byte of a cached blob so the next find()
  /// detects the CRC mismatch. Returns false if the digest is not cached.
  bool corrupt_blob(std::uint64_t digest);

 private:
  struct Blob {
    util::Bytes content;
    std::uint32_t crc = 0;
  };
  /// File every pending blob under its digest.
  void resolve() const;

  mutable std::unordered_map<std::uint64_t, Blob> blobs_;
  /// Put but not yet digested.
  mutable std::vector<Blob> pending_;
};

}  // namespace offload::edge
