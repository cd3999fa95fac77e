// Bump-pointer block arena for FP-tree nodes. The tree allocates tens
// of thousands of small, identically-sized, never-individually-freed
// nodes; a bump allocator places them contiguously in insertion order
// (parents and siblings land near each other, which is the traversal
// order of the conditional-pattern-base walks) and frees them all at
// once with the tree. allocated_bytes() reports the real reserved
// block bytes so RunGuard memory accounting sees what the allocator
// actually took from the heap, not just the node payload sum.
//
// Not a kernel: the arena allocates by design and is therefore outside
// the kernel-no-alloc lint scope (which covers the kernels_* TUs).
#ifndef DIVEXP_FPM_KERNELS_ARENA_H_
#define DIVEXP_FPM_KERNELS_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace divexp {
namespace fpm {

/// A block-based bump allocator for trivially destructible objects.
/// Objects are never destroyed individually; the arena releases all
/// blocks on destruction (or Reset). Not thread-safe: each FpTree owns
/// one arena and trees are confined to one worker.
class NodeArena {
 public:
  /// Default block size: 64 KiB holds ~1k FP-tree nodes, large enough
  /// to amortize the heap round-trip, small enough that a tiny
  /// conditional tree does not over-reserve by more than one block.
  static constexpr size_t kDefaultBlockBytes = 64 * 1024;

  explicit NodeArena(size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes) {}

  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Raw, uninitialized allocation of `size` bytes aligned to `align`
  /// (a power of two <= alignof(std::max_align_t)). Oversized requests
  /// get a dedicated block.
  void* Allocate(size_t size, size_t align) {
    size_t offset = (cursor_ + align - 1) & ~(align - 1);
    if (current_ == nullptr || offset + size > current_bytes_) {
      const size_t need = size + align;
      const size_t bytes = need > block_bytes_ ? need : block_bytes_;
      // Not zero-filled: New() constructs every object it hands out.
      blocks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(bytes));
      current_ = blocks_.back().get();
      current_bytes_ = bytes;
      allocated_bytes_ += bytes;
      cursor_ = 0;
      const size_t rem = reinterpret_cast<uintptr_t>(current_) % align;
      offset = rem == 0 ? 0 : align - rem;
    }
    cursor_ = offset + size;
    return current_ + offset;
  }

  /// Default-constructs a T in the arena. T must be trivially
  /// destructible — nothing ever runs its destructor.
  template <typename T>
  T* New() {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return ::new (Allocate(sizeof(T), alignof(T))) T();
  }

  /// Total heap bytes reserved by the arena's blocks (>= the sum of
  /// allocation sizes; this is the number RunGuard should account).
  uint64_t allocated_bytes() const { return allocated_bytes_; }

  /// Number of blocks reserved (exposed for the arena tests).
  size_t num_blocks() const { return blocks_.size(); }

  /// Releases every block. All objects allocated so far are gone.
  void Reset() {
    blocks_.clear();
    current_ = nullptr;
    current_bytes_ = 0;
    cursor_ = 0;
    allocated_bytes_ = 0;
  }

 private:
  size_t block_bytes_;
  std::vector<std::unique_ptr<unsigned char[]>> blocks_;
  unsigned char* current_ = nullptr;
  size_t current_bytes_ = 0;
  size_t cursor_ = 0;
  uint64_t allocated_bytes_ = 0;
};

}  // namespace fpm
}  // namespace divexp

#endif  // DIVEXP_FPM_KERNELS_ARENA_H_
