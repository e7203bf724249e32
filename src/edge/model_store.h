// Storage for pre-sent NN model files (Section III.B.1). The client pushes
// model files at app start; the edge server stores them and ACKs. When a
// snapshot later calls __loadModel("<app>"), the store instantiates the
// network from the stored description + weights. The client's store holds
// the files it sends and serves the network the client built
// (keep_network), so the client never parses its own files.
// It is also the host's dedup cache: named files and the dedup index below
// view the same bytes, and the index takes each file's CRC from the file,
// where it was taken once (when the client writes its send set, when a
// server receives it).
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
  /// Add or replace a file, and index its bytes. Invalidates any cached
  /// network built from files (not a kept one).
  void store_file(nn::ModelFile file);
  void store_files(std::vector<nn::ModelFile> files);

  /// Serve `net` as `app`'s network from now on, whatever files are
  /// stored: the client keeps the network it built, which its stored send
  /// set (rear weights only, under rear-only pre-send) could not rebuild.
  void keep_network(const std::string& app, std::shared_ptr<nn::Network> net);

  /// Drop every stored file, index entry and network (a server crash loses
  /// the store; clients must pre-send again).
  void clear();

  bool has_file(const std::string& name) const;
  const nn::ModelFile* find(const std::string& name) const;
  std::uint64_t total_bytes() const;
  std::size_t file_count() const { return files_.size(); }
  /// Every stored file, in insertion order (tier relays push an app's
  /// files up-tier by filtering on the "<app>." name prefix).
  const std::vector<nn::ModelFile>& files() const { return files_; }

  /// True if `app`'s network is kept, or enough files exist to instantiate
  /// it (description plus full or rear weights).
  bool can_instantiate(const std::string& app) const;

  /// The kept network of `app`, or one built from "<app>.desc" plus
  /// "<app>.weights" and/or "<app>.rear.weights". Layers with no stored
  /// weights keep their default (zero) parameters — which is exactly the
  /// information the privacy scheme denies the server. Cached; throws
  /// std::runtime_error if required files are missing, util::DecodeError
  /// if they are malformed.
  std::shared_ptr<nn::Network> instantiate(const std::string& app) const;

  // --- Dedup index. One entry per distinct content stored since the last
  // clear(): an entry outlives the replacement of its file by name. Each
  // records the CRC its file carries; the fnv1a digest is taken on the
  // first digest lookup, so a host that never offers never hashes.

  /// The fnv1a digest of `file`'s content (what a kModelOffer carries),
  /// indexing its bytes first if no stored file shares them.
  std::uint64_t digest(const nn::ModelFile& file);

  /// The indexed content with fnv1a `digest` (its file's name is that of
  /// the first file stored with it), or nullptr; the pointer lives until
  /// the store next changes. Content that no longer matches its recorded
  /// CRC is evicted and reported through `corrupt` (when non-null):
  /// callers treat it as a miss, so the client re-uploads instead of the
  /// server instantiating a bad network.
  const nn::ModelFile* find_blob(std::uint64_t digest,
                                 bool* corrupt = nullptr);

  std::size_t blob_count() const { return blobs_.size(); }
  std::uint64_t blob_bytes() const;

  /// Fault/test hook: rot byte `at` of the entry for `digest` so the next
  /// find_blob() fails its CRC check. The entry is pointed at a damaged
  /// private copy; stored files keep the intact bytes. False if `digest`
  /// is not indexed or its content has no byte `at`.
  bool corrupt_blob(std::uint64_t digest, std::size_t at = 0);

 private:
  struct Blob {
    nn::ModelFile file;  ///< its crc() is the one recorded at insert
    std::optional<std::uint64_t> digest;  ///< set on the first lookup
  };
  /// The entry for `file`'s content, added if new. Identical content is
  /// one entry, viewing the newest file's bytes.
  Blob& index(const nn::ModelFile& file);
  /// The entry whose content has `digest`, digesting every entry first.
  std::vector<Blob>::iterator lookup(std::uint64_t digest);

  std::vector<nn::ModelFile> files_;
  std::vector<Blob> blobs_;
  /// Networks by app: kept ones, and ones built from files (dropped when a
  /// file changes).
  struct CachedNetwork {
    std::shared_ptr<nn::Network> net;
    bool kept = false;
  };
  mutable std::unordered_map<std::string, CachedNetwork> networks_;
};

}  // namespace offload::edge
