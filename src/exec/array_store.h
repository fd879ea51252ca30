// Dense storage for the arrays of a loop nest.
//
// Values are int64 (the interpreter is exact); every access is bounds
// checked against the declared shape. Stores are value types — copy one to
// replay a nest from the same initial state.
//
// Buffers use an allocator whose default-construct is a no-op, so resize()
// maps pages without writing them. The store's own zeroing pass performs
// the first touch — and on Linux the first touch decides which NUMA node a
// page lands on. With Placement::kFirstTouch the store resolves a slice
// count at construction, and its three whole-store passes (zero, fill,
// checksum) run pinned and in parallel: worker k owns the k-th
// page-aligned contiguous slice of every array, the same slice the
// descriptor driver's position-ordered pre-seed hands pinned worker k, so
// each worker's pages start on its own node and are filled and digested
// there. Values and digests are identical either way; only page placement
// and which thread does the work change.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loopir/nest.h"

namespace vdep::exec {

using intlin::i64;
using intlin::Vec;

/// std::allocator whose value-initialization is skipped: resize() leaves
/// the new elements' pages untouched (the kernel maps them lazily), so the
/// thread that later zeroes a page is its true first toucher.
template <class T>
struct UninitAlloc : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAlloc<U>;
  };
  UninitAlloc() = default;
  template <class U>
  UninitAlloc(const UninitAlloc<U>&) noexcept {}
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
  /// allocate throws PreconditionError naming it and its byte count.
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
  /// of the slot's element 0. With slices_ > 1 it spawns slices_ - 1
  /// pinned threads once (the caller is worker 0); otherwise it runs every
  /// slot whole on the caller. Self is ArrayStore or const ArrayStore.
  template <class Self, class Fn>
  static void for_each_slice(Self& self, const Fn& fn);

  std::map<std::string, Slot> data_;
  std::size_t slices_ = 1;
};

}  // namespace vdep::exec
