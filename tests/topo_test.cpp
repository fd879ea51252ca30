// Tests for the topology layer (sysfs parsing, worker assignment, steal
// rings, affinity helpers) and for the scheduling policies built on it:
// pinning, locality-preferring splits and first-touch placement must never
// change results, only placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/array_store.h"
#include "exec/interpreter.h"
#include "loopir/builder.h"
#include "runtime/driver.h"
#include "runtime/stream_executor.h"
#include "topo/affinity.h"
#include "topo/topology.h"
#include "trans/planner.h"

namespace vdep::topo {
namespace {

using intlin::i64;

// -------------------------------------------------------- sysfs fixtures

/// Builds a sysfs-layout directory under the test temp dir. `cpus` rows are
/// {cpu, core, package, node}; nodes get node<K>/cpulist files, cpus get
/// topology/{core_id, physical_package_id}, and `online` is written as-is
/// (so offline holes and odd whitespace are expressible).
class FixtureSysfs {
 public:
  FixtureSysfs(const std::string& name, const std::string& online,
               const std::vector<CpuInfo>& cpus) {
    namespace fs = std::filesystem;
    root_ = fs::path(::testing::TempDir()) / name;
    fs::remove_all(root_);
    fs::create_directories(root_ / "cpu");
    write(root_ / "cpu" / "online", online);
    std::map<int, std::vector<int>> node_members;
    for (const CpuInfo& c : cpus) {
      fs::path topo =
          root_ / "cpu" / ("cpu" + std::to_string(c.cpu)) / "topology";
      fs::create_directories(topo);
      write(topo / "core_id", std::to_string(c.core));
      write(topo / "physical_package_id", std::to_string(c.package));
      node_members[c.node].push_back(c.cpu);
    }
    for (const auto& [node, members] : node_members) {
      fs::path dir = root_ / "node" / ("node" + std::to_string(node));
      fs::create_directories(dir);
      std::string list;
      for (int c : members) list += (list.empty() ? "" : ",") + std::to_string(c);
      write(dir / "cpulist", list);
    }
  }
  ~FixtureSysfs() { std::filesystem::remove_all(root_); }

  std::string path() const { return root_.string(); }

 private:
  static void write(const std::filesystem::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text << "\n";
  }
  std::filesystem::path root_;
};

/// Two sockets, two NUMA nodes, two SMT threads per core, with cpus 4-5
/// offline: node 0 holds cores {0: cpus 0,8} {1: cpus 1,9}, node 1 holds
/// cores {0: cpus 2,10} {1: cpus 3,11} (core ids repeat across packages,
/// as on real hardware).
std::vector<CpuInfo> two_node_smt() {
  return {
      {0, 0, 0, 0}, {8, 0, 0, 0},   // node 0, core 0 + sibling
      {1, 1, 0, 0}, {9, 1, 0, 0},   // node 0, core 1 + sibling
      {2, 0, 1, 1}, {10, 0, 1, 1},  // node 1, core 0 + sibling
      {3, 1, 1, 1}, {11, 1, 1, 1},  // node 1, core 1 + sibling
  };
}

TEST(TopologySysfs, ParsesMultiNodeSmtWithOfflineHoles) {
  FixtureSysfs fx("vdep_topo_multinode", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());
  ASSERT_FALSE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 8);
  EXPECT_EQ(t.sockets(), 2);
  EXPECT_EQ(t.numa_nodes(), 2);
  EXPECT_EQ(t.cores(), 4);
  EXPECT_TRUE(t.smt());

  // Slot lookup by kernel cpu id.
  auto slot = [&](int cpu) {
    for (int s = 0; s < t.num_cpus(); ++s)
      if (t.cpus()[static_cast<std::size_t>(s)].cpu == cpu) return s;
    return -1;
  };
  EXPECT_EQ(t.distance(slot(0), slot(0)), Topology::kSameCpu);
  EXPECT_EQ(t.distance(slot(0), slot(8)), Topology::kSmtSibling);
  EXPECT_EQ(t.distance(slot(0), slot(1)), Topology::kSameNode);
  EXPECT_EQ(t.distance(slot(0), slot(2)), Topology::kRemoteNode);
  // Same core id, different package: NOT siblings.
  EXPECT_EQ(t.distance(slot(0), slot(10)), Topology::kRemoteNode);
}

TEST(TopologySysfs, OfflineCpusAreExcluded) {
  // online says 0-2 although topology files exist for 0-3.
  std::vector<CpuInfo> cpus = {{0, 0, 0, 0}, {1, 1, 0, 0}, {2, 2, 0, 0},
                               {3, 3, 0, 0}};
  FixtureSysfs fx("vdep_topo_offline", "0-2", cpus);
  Topology t = Topology::from_sysfs(fx.path());
  EXPECT_EQ(t.num_cpus(), 3);
  for (const CpuInfo& c : t.cpus()) EXPECT_NE(c.cpu, 3);
}

TEST(TopologySysfs, MissingTopologyFilesDegradeToFlatPerCpuCores) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(::testing::TempDir()) / "vdep_topo_bare";
  fs::remove_all(root);
  fs::create_directories(root / "cpu");
  {
    std::ofstream out(root / "cpu" / "online");
    out << "0-3\n";
  }
  Topology t = Topology::from_sysfs(root.string());
  fs::remove_all(root);
  ASSERT_FALSE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 4);
  EXPECT_EQ(t.cores(), 4);   // core defaults to the cpu id: all distinct
  EXPECT_EQ(t.numa_nodes(), 1);
  EXPECT_FALSE(t.smt());
}

TEST(TopologySysfs, UnreadableRootFallsBackFlat) {
  Topology t = Topology::from_sysfs("/nonexistent/vdep/sysfs");
  EXPECT_TRUE(t.flat_fallback());
  EXPECT_EQ(t.num_cpus(), 1);
  EXPECT_EQ(t.numa_nodes(), 1);
}

// ------------------------------------------- assignment and steal rings

TEST(TopologyAssign, SpreadsCoresAcrossNodesBeforeSmt) {
  FixtureSysfs fx("vdep_topo_assign", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());

  // Two workers land on different NUMA nodes.
  std::vector<int> two = t.assign_workers(2);
  EXPECT_NE(t.cpus()[static_cast<std::size_t>(two[0])].node,
            t.cpus()[static_cast<std::size_t>(two[1])].node);

  // Four workers cover all four physical cores (no SMT doubling yet).
  std::vector<int> four = t.assign_workers(4);
  std::set<std::pair<int, int>> cores;
  for (int s : four) {
    const CpuInfo& c = t.cpus()[static_cast<std::size_t>(s)];
    cores.insert({c.package, c.core});
  }
  EXPECT_EQ(cores.size(), 4u);

  // Eight workers cover all eight hardware threads.
  std::vector<int> eight = t.assign_workers(8);
  EXPECT_EQ(std::set<int>(eight.begin(), eight.end()).size(), 8u);

  // Oversubscription wraps deterministically.
  std::vector<int> twelve = t.assign_workers(12);
  for (std::size_t w = 8; w < 12; ++w) EXPECT_EQ(twelve[w], twelve[w - 8]);
}

TEST(TopologyAssign, StealRingsPartitionOtherWorkersByDistance) {
  FixtureSysfs fx("vdep_topo_rings", "0-3,8-11", two_node_smt());
  Topology t = Topology::from_sysfs(fx.path());
  for (std::size_t n : {2u, 4u, 8u, 12u}) {
    std::vector<int> assignment = t.assign_workers(n);
    for (int self = 0; self < static_cast<int>(n); ++self) {
      std::vector<std::vector<int>> rings = t.steal_rings(assignment, self);
      ASSERT_EQ(rings.size(), static_cast<std::size_t>(Topology::kNumDistances));
      std::set<int> seen;
      for (int d = 0; d < Topology::kNumDistances; ++d) {
        for (int w : rings[static_cast<std::size_t>(d)]) {
          EXPECT_NE(w, self);
          EXPECT_TRUE(seen.insert(w).second) << "worker listed twice";
          EXPECT_EQ(t.distance(assignment[static_cast<std::size_t>(self)],
                               assignment[static_cast<std::size_t>(w)]),
                    d);
        }
      }
      EXPECT_EQ(seen.size(), n - 1) << "rings must cover every other worker";
    }
  }
}

TEST(TopologyAssign, FlatTopologyHasOnlySameNodeRing) {
  Topology t = Topology::flat(4);
  std::vector<int> assignment = t.assign_workers(4);
  std::vector<std::vector<int>> rings = t.steal_rings(assignment, 0);
  EXPECT_TRUE(rings[Topology::kSameCpu].empty());
  EXPECT_TRUE(rings[Topology::kSmtSibling].empty());
  EXPECT_EQ(rings[Topology::kSameNode].size(), 3u);
  EXPECT_TRUE(rings[Topology::kRemoteNode].empty());
}

// ----------------------------------------------------- affinity helpers

TEST(Affinity, SystemTopologyMatchesAllowedCpus) {
  const Topology& t = Topology::system();
  EXPECT_GE(t.num_cpus(), 1);
  if (!pin_supported()) return;
  std::vector<int> allowed = allowed_cpus();
  if (allowed.empty()) return;
  // Every cpu the runtime might pin to must be in the process's mask.
  for (const CpuInfo& c : t.cpus())
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), c.cpu), allowed.end())
        << "cpu " << c.cpu << " not in the affinity mask";
}

TEST(Affinity, GuardPinsAndRestores) {
  if (!pin_supported()) GTEST_SKIP() << "no sched_setaffinity on this host";
  CpuSet before = CpuSet::current();
  ASSERT_FALSE(before.empty());
  const int target = before.cpus().front();
  {
    AffinityGuard guard(target);
    EXPECT_TRUE(guard.pinned());
    CpuSet during = CpuSet::current();
    EXPECT_EQ(during.count(), 1);
    EXPECT_TRUE(during.test(target));
  }
  CpuSet after = CpuSet::current();
  EXPECT_EQ(after.cpus(), before.cpus());
}

TEST(Affinity, VdepPinEnvDisablesPinning) {
  ASSERT_EQ(setenv("VDEP_PIN", "0", 1), 0);
  EXPECT_FALSE(pin_env_enabled());
  EXPECT_FALSE(runtime::detail::effective_pin(true, 8));
  ASSERT_EQ(unsetenv("VDEP_PIN"), 0);
  EXPECT_TRUE(pin_env_enabled());
  // One worker never pins (nothing to place), opt-out always wins.
  EXPECT_FALSE(runtime::detail::effective_pin(true, 1));
  EXPECT_FALSE(runtime::detail::effective_pin(false, 8));
}

// ------------------------------------- scheduling policies are identity-
// ------------------------------------- preserving (results never change)

trans::TransformPlan plan_for(const loopir::LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

/// Sequential reference for `nest` from the deterministic pattern fill.
exec::ArrayStore reference(const loopir::LoopNest& nest) {
  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::run_sequential(nest, ref);
  return ref;
}

TEST(TopologyScheduling, PinnedAndUnpinnedRunsAreBitIdentical) {
  struct Case {
    const char* name;
    loopir::LoopNest nest;
  };
  Case cases[] = {
      {"example42", core::example42(40)},
      {"skewed_extent", core::skewed_extent(4000)},
      {"matmul_reduction", core::matmul_reduction(12)},
  };
  for (Case& c : cases) {
    trans::TransformPlan plan = plan_for(c.nest);
    exec::ArrayStore ref = reference(c.nest);
    for (std::size_t threads : {1u, 2u, 8u}) {
      for (bool pin : {false, true}) {
        runtime::StreamOptions so;
        so.drive.threads = threads;
        so.drive.pin_workers = pin;
        runtime::StreamExecutor ex(c.nest, plan, so);
        exec::ArrayStore store(c.nest);
        store.fill_pattern();
        runtime::RuntimeStats rs = ex.run(store);
        EXPECT_TRUE(ref == store)
            << c.name << " threads=" << threads << " pin=" << pin;
        // The invariant tasks == splits + 1 must survive pre-seeding.
        EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 1) << c.name;
      }
    }
  }
}

TEST(TopologyScheduling, StealDistanceCountersSumToTotalSteals) {
  loopir::LoopNest nest = core::skewed_extent(1 << 16);
  trans::TransformPlan plan = plan_for(nest);
  runtime::StreamOptions so;
  so.drive.threads = 8;
  so.grain = 256;  // many leaves: steals actually happen
  runtime::StreamExecutor ex(nest, plan, so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  runtime::RuntimeStats rs = ex.run(store);
  i64 by_distance = 0;
  for (int d = 0; d < runtime::kStealDistances; ++d)
    by_distance += rs.total_steals_by_distance(d);
  EXPECT_EQ(by_distance, rs.total_steals());
  for (const runtime::WorkerStats& w : rs.workers) {
    i64 sum = 0;
    for (int d = 0; d < runtime::kStealDistances; ++d)
      sum += w.steals_by_distance[d];
    EXPECT_EQ(sum, w.steals);
  }
  // The human-readable table carries the distance row.
  EXPECT_NE(rs.to_string().find("steals by distance"), std::string::npos);
}

// ---------------------------------------------------------- first touch

/// Whether a kFirstTouch store can slice its passes here at all. Without
/// two usable cpus and pinning every store stays serial, and a sliced-pass
/// test would only compare the serial path with itself.
bool stores_can_slice() {
  return Topology::system().num_cpus() >= 2 && pin_supported() &&
         pin_env_enabled();
}

/// A store mixing an array under the 64 KiB per-array threshold (A, 1000
/// elements) with two above it whose sizes are not page multiples (B:
/// 100003 elements, 163 in its tail page; C: 3 x 40961, 3 in its tail page)
/// and 1.8 MiB in total, above the 1 MiB slicing floor. Name order A, B, C
/// is also the digest's position order.
loopir::LoopNest mixed_store_nest() {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, 999);
  b.array("A", {{0, 999}});
  b.array("B", {{0, 100002}});
  b.array("C", {{0, 2}, {0, 40960}});
  b.assign(b.ref("A", {b.idx(0)}),
           loopir::Expr::add(b.read("B", {b.idx(0)}),
                             b.read("C", {b.affine({0}, 1), b.idx(0)})));
  return b.build();
}

/// A store of `arrays` one-dimensional arrays A0, A1, ... of `count`
/// elements each (name order = index order for up to ten arrays).
loopir::LoopNest flat_store_nest(int arrays, i64 count) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, count - 1);
  for (int k = 0; k < arrays; ++k)
    b.array("A" + std::to_string(k), {{0, count - 1}});
  b.assign(b.ref("A0", {b.idx(0)}),
           b.read("A" + std::to_string(arrays - 1), {b.idx(0)}));
  return b.build();
}

/// Elements of an array just below and just above the mapping floor.
constexpr i64 kBelowMapped = exec::detail::kMappedMinBytes / 8 - 1;
constexpr i64 kAboveMapped = exec::detail::kMappedMinBytes / 8 + 3;
constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;

/// A 1000-element heap array A and a mapped array B.
loopir::LoopNest mapped_store_nest() {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, 999);
  b.array("A", {{0, 999}});
  b.array("B", {{0, kAboveMapped - 1}});
  b.assign(b.ref("A", {b.idx(0)}), b.read("B", {b.idx(0)}));
  return b.build();
}

bool is_mapped(const exec::ArrayStore::Buffer& b) {
  return exec::ArrayStore::Buffer::allocator_type::mapped(b.capacity());
}

std::uintptr_t huge_page_offset(const exec::ArrayStore::Buffer& b) {
  return reinterpret_cast<std::uintptr_t>(b.data()) % kHugePage;
}

TEST(FirstTouch, PlacementNeverChangesValues) {
  if (!stores_can_slice())
    GTEST_SKIP() << "fewer than 2 usable cpus or no pinning: no store slices";
  struct Case {
    const char* name;
    loopir::LoopNest nest;
    // One element in the tail page of the last array: the last page of the
    // last slice.
    std::string tail_array;
    intlin::Vec tail;
  };
  Case cases[] = {
      {"skewed_extent", core::skewed_extent(1 << 16), "B", {1, 1 << 16}},
      {"mixed_store", mixed_store_nest(), "C", {2, 40960}},
      // A mapped array at a nonzero stagger (B sorts after A): slices cut
      // at 2 MiB boundaries, touch-only zeroing.
      {"mapped_store", mapped_store_nest(), "B", {kAboveMapped - 1}},
  };
  const std::size_t cpus = Topology::system().num_cpus();
  for (Case& c : cases) {
    const exec::ArrayStore zero(c.nest);
    exec::ArrayStore filled(c.nest);
    filled.fill_pattern();
    const i64 filled_sum = filled.checksum();
    exec::ArrayStore written = filled;
    written.write(c.tail_array, c.tail, 12345);
    const i64 written_sum = written.checksum();
    ASSERT_NE(filled_sum, written_sum) << c.name;

    for (exec::ArrayStore::Placement placement :
         {exec::ArrayStore::Placement::kSerial,
          exec::ArrayStore::Placement::kFirstTouch}) {
      const bool touch = placement == exec::ArrayStore::Placement::kFirstTouch;
      for (std::size_t threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(testing::Message()
                     << c.name << ", " << (touch ? "first-touch" : "serial")
                     << " x " << threads << " touch threads");
        exec::ArrayStore store(c.nest, placement, threads);
        EXPECT_EQ(store.slices(), touch ? std::min(threads, cpus) : 1u);
        EXPECT_TRUE(store == zero);
        store.fill_pattern();
        EXPECT_TRUE(store == filled);
        EXPECT_EQ(store.checksum(), filled_sum);
        store.write(c.tail_array, c.tail, 12345);
        EXPECT_TRUE(store == written);
        EXPECT_EQ(store.checksum(), written_sum);
      }
    }
  }
}

TEST(FirstTouch, ExecutionOverFirstTouchStoreMatchesReference) {
  loopir::LoopNest nest = core::skewed_extent(1 << 16);
  trans::TransformPlan plan = plan_for(nest);
  exec::ArrayStore ref = reference(nest);
  runtime::StreamOptions so;
  so.drive.threads = 8;
  runtime::StreamExecutor ex(nest, plan, so);
  exec::ArrayStore store(nest, exec::ArrayStore::Placement::kFirstTouch, 8);
  store.fill_pattern();
  ex.run(store);
  EXPECT_TRUE(ref == store);
}

TEST(FirstTouch, TinyAndOddSizedArraysAreFullyZeroed) {
  // Below the 64 KiB parallel threshold and not page-multiple sized: the
  // serial path and the tail page must still zero every element.
  loopir::LoopNest nest = core::example42(37);
  exec::ArrayStore a(nest, exec::ArrayStore::Placement::kFirstTouch, 8);
  exec::ArrayStore b(nest, exec::ArrayStore::Placement::kSerial);
  EXPECT_TRUE(a == b);
}

/// The documented fill, written out independently of the store: element k
/// of an array gets (k * 2654435761 + FNV-1a(name)) % 199 - 99.
i64 documented_fill(const std::string& name, std::uint64_t k) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<std::uint64_t>(c)) * 1099511628211ULL;
  return static_cast<i64>((k * 2654435761ULL + h) % 199) - 99;
}

/// One SplitMix64 term of the documented digest.
std::uint64_t documented_mix(i64 v, std::uint64_t pos) {
  std::uint64_t z = static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL * pos;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(FirstTouch, ParallelStoreMatchesDocumentedFillAndDigest) {
  if (!stores_can_slice())
    GTEST_SKIP() << "fewer than 2 usable cpus or no pinning: no store slices";
  loopir::LoopNest nest = mixed_store_nest();
  exec::ArrayStore store(nest, exec::ArrayStore::Placement::kFirstTouch, 3);
  ASSERT_GE(store.slices(), 2u);
  store.fill_pattern();
  std::uint64_t digest = 0;
  std::uint64_t pos = 0;
  for (const std::string name : {"A", "B", "C"}) {
    const exec::ArrayStore::Buffer& buf = store.raw(name);
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < buf.size(); ++k) {
      const i64 want = documented_fill(name, k);
      mismatches += buf[k] != want;
      digest += documented_mix(want, ++pos);
    }
    EXPECT_EQ(mismatches, 0u) << "array " << name;
  }
  EXPECT_EQ(pos, 1000u + 100003u + 3u * 40961u);
  EXPECT_EQ(store.checksum(), static_cast<i64>(digest));
}

TEST(FirstTouch, LargeArraysHaveDistinctHugePageOffsets) {
  // Two arrays at one offset mod 2 MiB alias in every cache and TLB set a
  // lockstep loop touches; the stagger keeps them apart.
  loopir::LoopNestBuilder b;
  b.loop("i", 0, 9);
  b.array("small", {{0, 99}});
  for (const char* name : {"A", "B", "C"})
    b.array(name, {{0, kAboveMapped - 1}});
  b.assign(b.ref("A", {b.idx(0)}), b.read("small", {b.idx(0)}));
  const exec::ArrayStore store(b.build());
  std::set<std::uintptr_t> offsets;
  for (const char* name : {"A", "B", "C"}) {
    const exec::ArrayStore::Buffer& buf = store.raw(name);
    ASSERT_TRUE(is_mapped(buf)) << name;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u) << name;
    EXPECT_TRUE(offsets.insert(huge_page_offset(buf)).second)
        << name << " shares its offset mod 2 MiB";
  }
}

TEST(FirstTouch, StoreAfterFilledStoreReadsZero) {
  // Heap arrays may be recycled memory and need their memset; mapped
  // arrays skip it. A store built where a filled one just died must read
  // zero. 4096-element arrays come back from malloc's free lists dirty;
  // the other two sizes sit on either side of the mapping floor.
  using Placement = exec::ArrayStore::Placement;
  for (const i64 count : {i64{4096}, kBelowMapped, kAboveMapped}) {
    const loopir::LoopNest nest = flat_store_nest(2, count);
    for (Placement placement : {Placement::kSerial, Placement::kFirstTouch}) {
      SCOPED_TRACE(testing::Message()
                   << count << " elements, "
                   << (placement == Placement::kSerial ? "serial"
                                                       : "first-touch"));
      {
        exec::ArrayStore filled(nest, placement, 4);
        filled.fill_pattern();
      }
      const exec::ArrayStore store(nest, placement, 4);
      for (const std::string name : {"A0", "A1"}) {
        const exec::ArrayStore::Buffer& buf = store.raw(name);
        EXPECT_EQ(is_mapped(buf), count == kAboveMapped) << name;
        const auto nonzero = static_cast<std::size_t>(std::count_if(
            buf.begin(), buf.end(), [](i64 v) { return v != 0; }));
        EXPECT_EQ(nonzero, 0u) << name;
      }
    }
  }
}

TEST(FirstTouch, CopiedStoreKeepsValuesAndLayout) {
  const loopir::LoopNest nest = flat_store_nest(2, kAboveMapped);
  exec::ArrayStore store(nest, exec::ArrayStore::Placement::kFirstTouch);
  store.fill_pattern();
  const exec::ArrayStore copy = store;
  EXPECT_TRUE(copy == store);
  EXPECT_EQ(copy.checksum(), store.checksum());
  for (const std::string name : {"A0", "A1"}) {
    ASSERT_TRUE(is_mapped(copy.raw(name))) << name;
    EXPECT_NE(copy.raw(name).data(), store.raw(name).data()) << name;
    EXPECT_EQ(huge_page_offset(copy.raw(name)),
              huge_page_offset(store.raw(name)))
        << name << ": the copy lost its stagger";
  }
}

/// AnonHugePages (kB) of the /proc/self/smaps mapping holding `addr`, or
/// -1 when no mapping holds it.
long anon_huge_kb(std::uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
      continue;
    }
    long kb = 0;
    if (inside && std::sscanf(line.c_str(), "AnonHugePages: %ld kB", &kb) == 1)
      return kb;
  }
  return -1;
}

TEST(FirstTouch, LargeArraysAreBackedByHugePages) {
  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  std::getline(thp, mode);
  if (mode.empty() || mode.find("[never]") != std::string::npos)
    GTEST_SKIP() << "transparent huge pages unavailable (\"" << mode
                 << "\"): mapped arrays keep 4 KiB pages";
  const exec::ArrayStore store(flat_store_nest(1, kAboveMapped));
  const exec::ArrayStore::Buffer& buf = store.raw("A0");
  ASSERT_TRUE(is_mapped(buf));
  EXPECT_GT(anon_huge_kb(reinterpret_cast<std::uintptr_t>(buf.data())), 0)
      << "THP mode \"" << mode << "\"";
}

#if defined(__SANITIZE_ADDRESS__)
#define VDEP_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define VDEP_TEST_ASAN 1
#endif
#endif

TEST(FirstTouch, WritePastMappedArrayIsReported) {
#ifndef VDEP_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer: mapped arrays are unchecked "
                  "without it";
#else
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  exec::ArrayStore store(flat_store_nest(2, kAboveMapped));
  exec::ArrayStore::Buffer& buf = store.raw_mutable("A1");
  ASSERT_TRUE(is_mapped(buf));
  i64* volatile end = buf.data() + buf.size();
  EXPECT_DEATH(*end = 1, "AddressSanitizer");
#endif
}

}  // namespace
}  // namespace vdep::topo
