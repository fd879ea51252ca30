// Dense storage for the arrays of a loop nest.
//
// Values are int64 (the interpreter is exact); every access is bounds
// checked against the declared shape. Stores are value types — copy one to
// replay a nest from the same initial state.
//
// Buffers use an allocator whose default-construct is a no-op, so resize()
// maps pages without writing them. The store's own zeroing pass performs
// the first touch — and on Linux the first touch decides which NUMA node a
// page lands on. Arrays of 32 MiB or more get their own anonymous
// mapping, 2 MiB-aligned and advised for transparent huge pages, so a
// first touch faults in 2 MiB and releasing the array unmaps a few huge
// pages; the k-th array in name order starts k * (4 KiB + 64 B) (mod
// 2 MiB) past the mapping's start, so two arrays never share an offset
// mod 2 MiB (which made a two-array wavefront 3x slower). A fresh mapping
// is already zero, so for these arrays the zeroing pass only writes one
// element per 4 KiB page — the write that places the page. Smaller arrays
// come from the heap, which may hand back recycled memory, and are zeroed
// with memset.
//
// With Placement::kFirstTouch the store resolves a slice count at
// construction, and its three whole-store passes (zero, fill, checksum)
// run pinned and in parallel: worker k owns the k-th contiguous slice of
// every array, cut at page boundaries (2 MiB boundaries for mapped
// arrays, so each huge page has one first toucher) — the slice the
// descriptor driver's position-ordered pre-seed hands pinned worker k, so
// each worker's pages start on its own node and are filled and digested
// there. Values and digests are identical either way; only page placement
// and which thread does the work change.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "loopir/nest.h"

namespace vdep::exec {

using intlin::i64;
using intlin::Vec;

namespace detail {

/// Arrays of at least this many bytes (32 MiB) are mapped, not
/// heap-allocated (see UninitAlloc). 32 MiB is glibc's largest dynamic
/// mmap threshold: above it malloc maps every array itself and faults it
/// in 4 KiB at a time, so a huge-page mapping can only win; below it a
/// process whose earlier frees raised the threshold recycles heap memory
/// without faults. Measured with the store_lifecycle rows of
/// bench_runtime_throughput (4-vCPU Xeon VM, 1 NUMA node, THP madvise;
/// construct + fill + checksum + release of a two-array store, median of
/// 4 default runs, serial / first-touch, heap -> mapped): with the floor
/// at 2 MiB, recycled 2-8 MiB arrays beat fresh mappings (2 MiB 2.4 ->
/// 3.2 / 2.0 -> 3.2 ms, 8 MiB 9.4 -> 12.2 / 6.6 -> 8.6 ms) while 16 and
/// 32 MiB arrays won (46.4 -> 23.6 / 24.6 -> 12.7 ms, 89.4 -> 49.7 / 47.6
/// -> 22.4 ms). A 16 MiB floor lost worse: its arrays no longer passed
/// through malloc, glibc's threshold stayed low and 8 MiB arrays faulted
/// page by page (11.4 -> 23.8 / 7.7 -> 17.6 ms). At 32 MiB the rows
/// below the floor stay put and 32 / 64 MiB arrays win (98.4 -> 51.8 /
/// 39.0 -> 28.8 ms, 186.6 -> 108.3 / 75.4 -> 46.0 ms).
inline constexpr std::size_t kMappedMinBytes = std::size_t{32} << 20;

/// A fresh zeroed mapping for `bytes` bytes, starting colour * (4 KiB +
/// 64 B) (mod 2 MiB) past a 2 MiB boundary; throws std::bad_alloc when
/// the kernel refuses it.
void* map_array(std::size_t bytes, std::size_t colour);
/// Releases a map_array() result; the mapping is recovered from `p`.
void unmap_array(void* p, std::size_t bytes) noexcept;

}  // namespace detail

/// Array allocator. Value-initialization is skipped, so resize() leaves the
/// new elements' pages untouched and the thread that later zeroes a page
/// is its true first toucher. Arrays of detail::kMappedMinBytes or more
/// get their own huge-page-advised mapping, staggered by `colour` (the
/// array's index in its store); smaller ones come from std::allocator.
/// A copy carries the colour, so a copied store keeps its layout. The
/// colour only steers allocate(); deallocate() recovers the mapping from
/// the pointer, so any two allocators are interchangeable.
template <class T>
struct UninitAlloc {
  using value_type = T;

  std::size_t colour = 0;

  UninitAlloc() = default;
  explicit UninitAlloc(std::size_t c) noexcept : colour(c) {}
  template <class U>
  UninitAlloc(const UninitAlloc<U>& o) noexcept : colour(o.colour) {}

  /// Whether an allocation of `n` elements is mapped rather than heap.
  static bool mapped(std::size_t n) noexcept {
    return n >= detail::kMappedMinBytes / sizeof(T);
  }
  T* allocate(std::size_t n) {
    if (!mapped(n)) return std::allocator<T>().allocate(n);
    return static_cast<T*>(detail::map_array(n * sizeof(T), colour));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (mapped(n))
      detail::unmap_array(p, n * sizeof(T));
    else
      std::allocator<T>().deallocate(p, n);
  }
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const UninitAlloc&, const UninitAlloc&) {
    return true;
  }
};

class ArrayStore {
 public:
  /// Who zero-initializes the arrays' pages, i.e. where they land.
  enum class Placement {
    kSerial,      ///< the constructing thread touches everything
    kFirstTouch,  ///< parallel pinned touch, one slice per topology worker
  };

  /// One array's backing buffer. Kernel/inspector code holds pointers to
  /// these, so the type is part of the store's interface.
  using Buffer = std::vector<i64, UninitAlloc<i64>>;

  /// Allocates every array declared by the nest, zero-initialized.
  /// `touch_threads` sizes the kFirstTouch slices (0 = one per online cpu);
  /// pass the worker count the arrays will later be run with so the touch
  /// slices line up with the driver's pre-seeded slices. Buffers under
  /// 64 KiB go whole to worker 0; a store whose larger buffers hold less
  /// than 1 MiB in total, serial placement, VDEP_PIN=0 and hosts without
  /// affinity support keep all passes serial. An array too large to
  /// allocate (or to map) throws PreconditionError naming it and its byte
  /// count.
  explicit ArrayStore(const loopir::LoopNest& nest,
                      Placement placement = Placement::kSerial,
                      std::size_t touch_threads = 0);

  /// Deterministic non-trivial fill: element k of array a gets
  /// (k * 2654435761 + hash(name)) % 199 - 99, hash = 64-bit FNV-1a of
  /// the name (unsigned arithmetic mod 2^64). Runs on the construction-time
  /// slices, so under kFirstTouch each page is written by the worker that
  /// placed it.
  void fill_pattern();

  i64 read(const std::string& array, const Vec& coords) const;
  void write(const std::string& array, const Vec& coords, i64 value);

  bool operator==(const ArrayStore& o) const { return data_ == o.data_; }

  /// Content digest: the wrapping (mod 2^64) sum over every element of
  /// SplitMix64(value + 0x9e3779b97f4a7c15 * pos), pos = 1, 2, ... running
  /// through the arrays in name order. Summation-order independent, which
  /// is what lets the sliced pass sum each worker's slice separately and
  /// still return the serial loop's bits.
  i64 checksum() const;

  /// Worker count of the sliced passes, resolved at construction
  /// (1 = every pass runs serially on the caller).
  std::size_t slices() const { return slices_; }

  const Buffer& raw(const std::string& array) const;
  /// Mutable buffer access for compiled kernels (exec/compiled.h).
  Buffer& raw_mutable(const std::string& array);

 private:
  struct Slot {
    loopir::ArrayDecl decl;
    Buffer data;
    bool operator==(const Slot& o) const {
      return decl.name == o.decl.name && data == o.data;
    }
  };
  const Slot& slot(const std::string& array) const;
  Slot& slot(const std::string& array);
  /// The one whole-store pass: calls fn(worker, slot, offset, lo, hi) for
  /// elements [lo, hi) of each slot, where offset is the store-wide index
  /// of the slot's element 0. Slices are cut at 4 KiB address boundaries,
  /// 2 MiB ones for mapped arrays. With slices_ > 1 it spawns slices_ - 1
  /// pinned threads once (the caller is worker 0); otherwise it runs every
  /// slot whole on the caller. Self is ArrayStore or const ArrayStore.
  template <class Self, class Fn>
  static void for_each_slice(Self& self, const Fn& fn);

  std::map<std::string, Slot> data_;
  std::size_t slices_ = 1;
};

}  // namespace vdep::exec
