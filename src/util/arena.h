// Per-thread scratch arena for kernel workspaces (im2col buffers, packed
// GEMM panels). A kernel opens a Frame, bump-allocates what it needs, and
// the Frame's destructor returns the space — the backing block is kept, so
// after warm-up repeated forward passes perform zero heap allocations for
// scratch. Buffers are handed out 64-byte aligned for vector loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace offload::util {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Scoped allocation region. Frames nest (LIFO); destruction rewinds the
  /// arena to where the frame began without freeing the backing block.
  class Frame {
   public:
    explicit Frame(ScratchArena& arena)
        : arena_(arena), saved_offset_(arena.offset_) {}
    ~Frame() { arena_.rewind(saved_offset_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    float* floats(std::size_t n) {
      return static_cast<float*>(arena_.allocate(n * sizeof(float)));
    }

   private:
    ScratchArena& arena_;
    std::size_t saved_offset_;
  };

  /// Arena of the current thread. Kernels running on pool workers or on the
  /// caller each get their own, so no synchronization is needed.
  static ScratchArena& local();

  /// Number of heap blocks ever allocated by this arena. Stable across two
  /// identical forward passes ⇒ the second pass did zero scratch
  /// allocations (asserted by tests).
  std::uint64_t block_allocations() const { return block_allocations_; }
  std::size_t capacity() const;

 private:
  friend class Frame;

  void* allocate(std::size_t bytes);
  void rewind(std::size_t offset);

  // Bump allocation runs over main_; requests that do not fit while frames
  // are live go to overflow blocks (their pointers must stay valid), and
  // the next full rewind consolidates total demand back into main_ so the
  // steady state is a single block and zero allocations.
  std::vector<std::byte> main_;
  std::vector<std::vector<std::byte>> overflow_;
  std::size_t offset_ = 0;      ///< bump offset into main_ (aligned base)
  std::size_t high_water_ = 0;  ///< peak total demand seen
  std::uint64_t block_allocations_ = 0;
};

}  // namespace offload::util
