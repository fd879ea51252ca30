#include "exec/array_store.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>

// ASAN_(UN)POISON_MEMORY_REGION are no-ops in builds without ASan.
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

#include "support/error.h"
#include "topo/affinity.h"
#include "topo/topology.h"

namespace vdep::exec {

namespace {

/// First-touch granularity: whole pages, so two touch threads never split
/// ownership of one page. Mapped arrays are cut at huge-page boundaries.
constexpr std::size_t kPage = 4096;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
/// Stagger step between the arrays of one store: a page plus a cache line,
/// so the arrays differ in their offset mod 2 MiB and mod 4 KiB alike.
constexpr std::size_t kStagger = kPage + 64;
/// Arrays under this (64 KiB, 16 pages) go whole to worker 0 rather than
/// being cut into slices of a page or two.
constexpr std::size_t kParallelMinElems = (64u << 10) / sizeof(i64);
/// A store slices its passes only when its arrays of kParallelMinElems or
/// more hold at least this much (1 MiB): each sliced pass spawns, pins and
/// joins its workers, about 100 us for 3 threads. Measured with the
/// bench_runtime_throughput store_lifecycle rows (4-vCPU Xeon VM, 1 NUMA
/// node, median of 101 reps): at 128-256 KiB stores a first-touch fill or
/// checksum took 100-140 us against 20-75 us serial, at 512 KiB both took
/// 95-150 us, at 1 MiB first-touch was 5-35% faster and at 2 MiB 2x.
constexpr std::size_t kSlicedStoreMinElems = (1u << 20) / sizeof(i64);

/// "9223372036854775808 bytes": the size of `count` i64 elements, or its
/// lower bound when that does not fit 64 bits.
std::string byte_count(std::size_t count) {
  std::size_t bytes = 0;
  if (__builtin_mul_overflow(count, sizeof(i64), &bytes))
    return "more than " +
           std::to_string(std::numeric_limits<std::size_t>::max()) +
           " bytes";
  return std::to_string(bytes) + " bytes";
}

std::size_t address_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

/// Length of the mapping of an array of `bytes` bytes at stagger `lead`:
/// whole huge pages, so each can be backed by one 2 MiB page.
std::size_t mapping_bytes(std::size_t lead, std::size_t bytes) {
  return (lead + bytes + kHugePage - 1) / kHugePage * kHugePage;
}

/// Whether `b` lives in its own fresh mapping (UninitAlloc's large path).
bool mapped(const ArrayStore::Buffer& b) {
  return ArrayStore::Buffer::allocator_type::mapped(b.capacity());
}

}  // namespace

namespace detail {

// An array at stagger `lead` lives at base + lead in the mapping
// [base, base + mapping_bytes(lead, bytes)), base 2 MiB-aligned. ASan does
// not track mmap memory, so the stagger prefix and the tail slack are
// poisoned to keep out-of-bounds accesses reported.

void* map_array(std::size_t bytes, std::size_t colour) {
  const std::size_t lead = colour * kStagger % kHugePage;
  const std::size_t len = mapping_bytes(lead, bytes);
  // Over-reserve by one huge page, then trim to the aligned window.
  void* raw = ::mmap(nullptr, len + kHugePage, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const first = static_cast<char*>(raw);
  const std::size_t head =
      (kHugePage - address_of(first) % kHugePage) % kHugePage;
  char* const base = first + head;
  if (head != 0) ::munmap(first, head);
  ::munmap(base + len, kHugePage - head);
  // Best effort: without THP support (EINVAL) the array keeps 4 KiB pages.
  ::madvise(base, len, MADV_HUGEPAGE);
  ASAN_POISON_MEMORY_REGION(base, lead);
  ASAN_POISON_MEMORY_REGION(base + lead + bytes, len - lead - bytes);
  return base + lead;
}

void unmap_array(void* p, std::size_t bytes) noexcept {
  char* const start = static_cast<char*>(p);
  const std::size_t lead = address_of(start) % kHugePage;
  char* const base = start - lead;
  const std::size_t len = mapping_bytes(lead, bytes);
  ASAN_UNPOISON_MEMORY_REGION(base, len);
  ::munmap(base, len);
}

}  // namespace detail

ArrayStore::ArrayStore(const loopir::LoopNest& nest, Placement placement,
                       std::size_t touch_threads) {
  const std::vector<loopir::ArrayDecl>& arrays = nest.arrays();
  std::size_t sliceable = 0;
  for (const loopir::ArrayDecl& a : arrays) {
    // The stagger colour is the array's rank in name order. Each buffer is
    // allocated before its map node, as heap placement (and so glibc's
    // trimming of the heap top) depends on that order.
    const auto colour = static_cast<std::size_t>(std::count_if(
        arrays.begin(), arrays.end(),
        [&](const loopir::ArrayDecl& b) { return b.name < a.name; }));
    Slot s{a, Buffer(UninitAlloc<i64>(colour))};
    const auto count = static_cast<std::size_t>(a.element_count());
    // resize() with UninitAlloc maps the pages without writing them; the
    // zeroing pass below performs the first (placement-deciding) touch.
    // Allocation failures become typed errors: the Expected APIs that
    // build stores (check(), owned batch stores) only capture vdep::Error.
    try {
      s.data.resize(count);
    } catch (const std::length_error&) {
      throw PreconditionError("array " + a.name + " needs " +
                              byte_count(count) +
                              ", more than a buffer can hold");
    } catch (const std::bad_alloc&) {
      throw PreconditionError("array " + a.name + " needs " +
                              byte_count(count) + ", which cannot be allocated");
    }
    if (count >= kParallelMinElems) sliceable += count;
    data_.emplace(a.name, std::move(s));
  }
  const topo::Topology& topology = topo::Topology::system();
  const std::size_t cpus = topology.num_cpus();
  const std::size_t threads =
      std::min(touch_threads != 0 ? touch_threads : cpus, cpus);
  if (placement == Placement::kFirstTouch && threads > 1 &&
      sliceable >= kSlicedStoreMinElems && topo::pin_supported() &&
      topo::pin_env_enabled())
    slices_ = threads;
  for_each_slice(*this, [](std::size_t, Slot& s, std::uint64_t,
                           std::size_t lo, std::size_t hi) {
    i64* p = s.data.data();
    if (!mapped(s.data)) {
      std::memset(p + lo, 0, (hi - lo) * sizeof(i64));
      return;
    }
    // A fresh mapping reads zero already: write one element per page, the
    // write that places it, instead of zeroing it a second time.
    for (std::size_t k = lo; k < hi;
         k += (kPage - address_of(p + k) % kPage) / sizeof(i64))
      p[k] = 0;
  });
}

template <class Self, class Fn>
void ArrayStore::for_each_slice(Self& self, const Fn& fn) {
  const std::size_t slices = self.slices_;
  auto pass = [&](std::size_t k) {
    std::uint64_t offset = 0;
    for (auto& [name, s] : self.data_) {
      const std::size_t count = s.data.size();
      if (slices <= 1 || count < kParallelMinElems) {
        if (k == 0 && count > 0) fn(k, s, offset, 0, count);
      } else {
        // Contiguous slices in worker order, cut at page boundaries (huge
        // pages for a mapped array): worker k's slice is the one the
        // driver's position-ordered pre-seed will hand it.
        const std::size_t unit = mapped(s.data) ? kHugePage : kPage;
        const std::size_t lead = address_of(s.data.data()) % unit;
        const std::size_t units =
            (lead + count * sizeof(i64) + unit - 1) / unit;
        auto cut = [&](std::size_t j) {
          const std::size_t at = units * j / slices * unit;
          return at <= lead ? 0 : std::min(count, (at - lead) / sizeof(i64));
        };
        const std::size_t lo = cut(k);
        const std::size_t hi = cut(k + 1);
        if (hi > lo) fn(k, s, offset, lo, hi);
      }
      offset += count;
    }
  };
  if (slices <= 1) {
    pass(0);
    return;
  }
  const topo::Topology& topology = topo::Topology::system();
  const std::vector<int> assignment = topology.assign_workers(slices);
  auto pinned = [&](std::size_t k) {
    topo::AffinityGuard pin(
        topology.cpus()[static_cast<std::size_t>(assignment[k])].cpu);
    pass(k);
  };
  // jthreads join on every exit path, so no worker outlives the pass.
  std::vector<std::jthread> workers;
  workers.reserve(slices - 1);
  std::size_t spawned = 1;
  try {
    for (; spawned < slices; ++spawned) workers.emplace_back(pinned, spawned);
  } catch (const std::system_error&) {
    // Out of threads: the caller runs the unspawned slices (unpinned) —
    // same values, only placement is lost.
  }
  for (std::size_t k = spawned; k < slices; ++k) pass(k);
  pinned(0);
}

void ArrayStore::fill_pattern() {
  for_each_slice(*this, [](std::size_t, Slot& s, std::uint64_t,
                           std::size_t lo, std::size_t hi) {
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : s.decl.name)
      h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
    i64* p = s.data.data();
    for (std::size_t k = lo; k < hi; ++k) {
      std::uint64_t v = (k * 2654435761ULL + h);
      p[k] = static_cast<i64>(v % 199) - 99;
    }
  });
}

const ArrayStore::Slot& ArrayStore::slot(const std::string& array) const {
  auto it = data_.find(array);
  VDEP_REQUIRE(it != data_.end(), "unknown array in store: " + array);
  return it->second;
}

ArrayStore::Slot& ArrayStore::slot(const std::string& array) {
  auto it = data_.find(array);
  VDEP_REQUIRE(it != data_.end(), "unknown array in store: " + array);
  return it->second;
}

i64 ArrayStore::read(const std::string& array, const Vec& coords) const {
  const Slot& s = slot(array);
  return s.data[static_cast<std::size_t>(s.decl.linear_index(coords))];
}

void ArrayStore::write(const std::string& array, const Vec& coords, i64 value) {
  Slot& s = slot(array);
  s.data[static_cast<std::size_t>(s.decl.linear_index(coords))] = value;
}

i64 ArrayStore::checksum() const {
  // Position-keyed SplitMix64 accumulation. The old polynomial digest
  // ((sum * 31 + v) % p) serialized a hardware divide per element, which
  // cost more than actually executing a small request — serving benches
  // were measuring the digest. Summing independent mixes keeps the loop
  // divide-free and lets iterations overlap, while a value moving between
  // positions still changes the digest. Wrapping addition is associative
  // and commutative, so per-worker partial sums over disjoint slices add
  // up to the serial loop's bits.
  std::vector<std::uint64_t> partial(slices_, 0);
  for_each_slice(*this, [&](std::size_t worker, const Slot& s,
                            std::uint64_t offset, std::size_t lo,
                            std::size_t hi) {
    std::uint64_t sum = 0;
    std::uint64_t pos = offset + lo;
    const i64* p = s.data.data();
    for (std::size_t k = lo; k < hi; ++k) {
      std::uint64_t z = static_cast<std::uint64_t>(p[k]) +
                        0x9e3779b97f4a7c15ULL * ++pos;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      sum += z ^ (z >> 31);
    }
    partial[worker] += sum;
  });
  std::uint64_t sum = 0;
  for (std::uint64_t v : partial) sum += v;
  return static_cast<i64>(sum);
}

const ArrayStore::Buffer& ArrayStore::raw(const std::string& array) const {
  return slot(array).data;
}

ArrayStore::Buffer& ArrayStore::raw_mutable(const std::string& array) {
  return slot(array).data;
}

}  // namespace vdep::exec
