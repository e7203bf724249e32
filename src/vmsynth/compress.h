// "mlzma": an LZ77 byte-oriented compressor (LZ4-style sequence format,
// hash-chain match finder) built from scratch for the VM-overlay path. The
// paper compresses its overlays with LZMA; we reproduce the role — overlay
// bytes shrink roughly 2-3x on system-file-like content while DNN weights
// (high-entropy floats) stay incompressible, which is what produces
// Table 1's 65 vs 82 MB overlay sizes.
#pragma once

#include <cstdint>

#include "src/util/bytes.h"

namespace offload::vmsynth {

/// Compress `input`. Output embeds a header with the original size.
/// Inputs larger than one block (1 MiB) use a framed container whose
/// blocks compress and decompress in parallel on the OFFLOAD_THREADS pool;
/// the bytes produced are identical at any thread count.
util::Bytes compress(std::span<const std::uint8_t> input);

/// Force the legacy single-stream encoding regardless of input size.
/// Exposed so tests and benches can bound the framed format's ratio
/// penalty; decompress() reads both formats.
util::Bytes compress_single_stream(std::span<const std::uint8_t> input);

/// Decompress a buffer produced by compress(). Throws util::DecodeError on
/// corrupt input.
util::Bytes decompress(std::span<const std::uint8_t> input);

}  // namespace offload::vmsynth
