#include "inspect/inspector.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <tuple>

#include "exec/kernel.h"
#include "support/error.h"

namespace vdep::inspect {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One written array's cells: slot k holds rank+1 of the first iteration
/// that writes cell k, 0 while no iteration does. A private anonymous
/// mapping starts zero without being touched, so only the pages the space
/// actually writes are ever backed — a sparse target costs its footprint,
/// not its declared extent.
class CellTable {
 public:
  explicit CellTable(const loopir::ArrayDecl& decl)
      : bytes_(static_cast<std::size_t>(decl.element_count()) * sizeof(i64)) {
    void* p = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
      throw PreconditionError("inspector cell table for array " + decl.name +
                              " (" + std::to_string(bytes_) +
                              " bytes) cannot be mapped");
    cells_ = static_cast<i64*>(p);
  }
  ~CellTable() { ::munmap(cells_, bytes_); }
  CellTable(const CellTable&) = delete;
  CellTable& operator=(const CellTable&) = delete;

  i64* cells() const { return cells_; }

 private:
  std::size_t bytes_;
  i64* cells_ = nullptr;
};

/// One distinct body reference, flattened for the per-iteration hot loop:
/// a cell is the row-major offset inside the array, with indirect slots
/// resolved through a pointer at the index array's raw buffer (no string
/// lookups, no Vec allocation per access). A subscript (or position)
/// proven in range over the iteration box is evaluated unchecked; a
/// gathered value is always checked.
struct FlatAccess {
  struct Sub {
    Vec coeffs;                 ///< subscript (indirect: position) coeffs
    i64 c0 = 0;                 ///< constant term (indirect: minus index lo)
    bool proven = false;        ///< the affine form stays in range
    const i64* idx = nullptr;   ///< indirect: index array buffer
    i64 idx_size = 0;           ///< indirect: index array length
    i64 lo = 0, extent = 0;     ///< declared dimension [lo, lo + extent)
  };
  bool write = false;
  i64* table = nullptr;  ///< the array's cell table; null if never written
  const std::string* array = nullptr;
  std::vector<Sub> subs;

  /// Whether every subscript is affine and proven: evaluating the
  /// reference can neither fail nor find anything.
  bool proven() const {
    return std::all_of(subs.begin(), subs.end(),
                       [](const Sub& s) { return s.proven && !s.idx; });
  }
};

/// Cell of access `a` at iteration `it` (depth coordinates); throws
/// PreconditionError when a position or subscript leaves its declared
/// range, OverflowError when an unproven affine form wraps.
i64 cell_of(const FlatAccess& a, const i64* it) {
  i64 off = 0;
  for (const FlatAccess::Sub& s : a.subs) {
    i64 v = s.c0;
    if (s.proven) {
      for (std::size_t k = 0; k < s.coeffs.size(); ++k) v += s.coeffs[k] * it[k];
    } else {
      for (std::size_t k = 0; k < s.coeffs.size(); ++k)
        v = checked::fma(v, s.coeffs[k], it[k]);
      if (s.idx)
        VDEP_REQUIRE(v >= 0 && v < s.idx_size,
                     "index-array position out of declared range");
    }
    if (s.idx) v = s.idx[v];
    if (s.idx || !s.proven)
      VDEP_REQUIRE(v >= s.lo && v - s.lo < s.extent,
                   "array " + *a.array + " subscript out of declared range");
    off = off * s.extent + (v - s.lo);
  }
  return off;
}

/// Root of `x` in the union-find forest `parent`, halving the path.
i64 uf_find(i64* parent, i64 x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Merges the components of `a` and `b`, always linking the larger root
/// under the smaller: every root stays its component's first iteration.
void uf_unite(i64* parent, i64 a, i64 b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  if (a > b) std::swap(a, b);
  parent[b] = a;
}

/// Number of iterations of levels >= k (`iter` holds the outer
/// coordinates): the innermost level is counted, not walked.
i64 count_iterations(const loopir::LoopNest& nest, int k, Vec& iter) {
  const loopir::Level& l = nest.level(k);
  const i64 lo = l.lower.eval_lower(iter);
  const i64 hi = l.upper.eval_upper(iter);
  if (hi < lo) return 0;
  if (k + 1 == nest.depth()) return checked::add(checked::sub(hi, lo), 1);
  i64 n = 0;
  const std::size_t kk = static_cast<std::size_t>(k);
  for (i64 v = lo; v <= hi; ++v) {
    iter[kk] = v;
    n = checked::add(n, count_iterations(nest, k + 1, iter));
  }
  iter[kk] = 0;
  return n;
}

/// Writes the coordinates of every iteration of levels >= k, in
/// lexicographic order, at `out` and returns the end of what it wrote.
i64* enumerate(const loopir::LoopNest& nest, int k, Vec& iter, i64* out) {
  const loopir::Level& l = nest.level(k);
  const i64 lo = l.lower.eval_lower(iter);
  const i64 hi = l.upper.eval_upper(iter);
  const std::size_t kk = static_cast<std::size_t>(k);
  for (i64 v = lo; v <= hi; ++v) {
    iter[kk] = v;
    if (k + 1 == nest.depth())
      for (i64 c : iter) *out++ = c;
    else
      out = enumerate(nest, k + 1, iter, out);
  }
  iter[kk] = 0;
  return out;
}

}  // namespace

void DynamicPartition::coords_of(i64 it, Vec& out) const {
  out.assign(coords(it), coords(it) + depth_);
}

DynamicPartition inspect(const loopir::LoopNest& nest,
                         const exec::ArrayStore& store) {
  const i64 t0 = now_ns();
  const int depth = nest.depth();
  DynamicPartition part;
  part.depth_ = depth;

  // Materialize the iteration coordinates in rank order: both passes walk
  // them, and the executor replays them later. Counting first sizes the
  // table once.
  i64 n = 0;
  if (depth > 0) {
    Vec iter(static_cast<std::size_t>(depth), 0);
    n = count_iterations(nest, 0, iter);
    part.coords_.resize(static_cast<std::size_t>(checked::mul(n, depth)));
    enumerate(nest, 0, iter, part.coords_.data());
  }

  // Flatten the body's distinct references once (a read-modify-write such
  // as A[B[i]] = A[B[i]] + ... is one reference); `accesses` keeps the
  // ArrayRefs the FlatAccess pointers borrow from alive for the whole
  // inspection. Every written array gets its cell table.
  const std::vector<loopir::LoopNest::Access> accesses = nest.accesses();
  std::map<std::string, std::unique_ptr<CellTable>> tables;
  for (const auto& a : accesses)
    if (std::unique_ptr<CellTable>& t = tables[a.ref.array]; a.is_write && !t)
      t = std::make_unique<CellTable>(nest.array(a.ref.array));
  const std::optional<poly::Box> box = poly::iteration_box(nest);
  std::vector<const loopir::ArrayRef*> refs;
  std::vector<FlatAccess> flat;
  for (const auto& a : accesses) {
    auto same = std::find_if(refs.begin(), refs.end(),
                             [&](const loopir::ArrayRef* r) { return *r == a.ref; });
    if (same != refs.end()) {
      flat[static_cast<std::size_t>(same - refs.begin())].write |= a.is_write;
      continue;
    }
    refs.push_back(&a.ref);
    const loopir::ArrayDecl& decl = nest.array(a.ref.array);
    FlatAccess fa;
    fa.write = a.is_write;
    fa.array = &decl.name;
    if (const std::unique_ptr<CellTable>& t = tables.at(a.ref.array))
      fa.table = t->cells();
    fa.subs.resize(a.ref.subscripts.size());
    for (std::size_t k = 0; k < a.ref.subscripts.size(); ++k) {
      FlatAccess::Sub& s = fa.subs[k];
      const loopir::AffineExpr* form = &a.ref.subscripts[k];
      auto [lo, hi] = decl.dims[k];
      if (k < a.ref.indirect.size() && a.ref.indirect[k].has_value()) {
        const loopir::IndirectSubscript& ind = *a.ref.indirect[k];
        const exec::ArrayStore::Buffer& idx = store.raw(ind.array);
        form = &ind.pos;
        s.idx = idx.data();
        s.idx_size = static_cast<i64>(idx.size());
        std::tie(lo, hi) = nest.array(ind.array).dims.front();
        s.c0 = -lo;
      }
      s.coeffs = form->coeffs();
      s.c0 = checked::add(s.c0, form->constant_term());
      s.proven = box && exec::form_within(*form, *box, lo, hi);
      s.lo = decl.dims[k].first;
      s.extent = decl.dims[k].second - decl.dims[k].first + 1;
    }
    flat.push_back(std::move(fa));
  }
  // Which pass walks which reference. An array every reference of which
  // writes (the scatter's A[B[i]] = A[B[i]] + ...) only has written cells,
  // so pass 1 links its touchers as it marks them ("claimed"). Otherwise
  // pass 1 marks the writes and pass 2 links every reference of the array.
  // References of arrays no iteration writes induce no dependence: pass 1
  // only range-checks those it could not prove.
  std::vector<const FlatAccess*> claimed, marked, linked, checked_only;
  for (const FlatAccess& fa : flat) {
    if (!fa.table) {
      if (!fa.proven()) checked_only.push_back(&fa);
      continue;
    }
    const bool all_write =
        std::all_of(flat.begin(), flat.end(), [&](const FlatAccess& o) {
          return o.table != fa.table || o.write;
        });
    if (all_write) {
      claimed.push_back(&fa);
      continue;
    }
    if (fa.write) marked.push_back(&fa);
    linked.push_back(&fa);
  }

  // The union-find forest lives in class_of_, every iteration its own
  // root to start.
  part.class_of_.resize(static_cast<std::size_t>(n));
  i64* const parent = part.class_of_.data();
  for (i64 r = 0; r < n; ++r) parent[r] = r;

  // Pass 1: every written cell's table slot ends as rank+1 of its first
  // writer; the 0 -> rank+1 step happens once per cell and counts it. A
  // claimed cell's later writers join its first writer right away.
  i64 written_cells = 0;
  for (i64 r = 0; r < n; ++r) {
    const i64* it = part.coords(r);
    for (const FlatAccess* fa : checked_only) cell_of(*fa, it);
    for (const FlatAccess* fa : marked) {
      i64& slot = fa->table[cell_of(*fa, it)];
      if (slot == 0) slot = r + 1, ++written_cells;
    }
    for (const FlatAccess* fa : claimed) {
      i64& slot = fa->table[cell_of(*fa, it)];
      if (slot == 0)
        slot = r + 1, ++written_cells;
      else if (slot != r + 1)
        uf_unite(parent, slot - 1, r);
    }
  }

  // Pass 2: every toucher of a written cell of the other arrays joins its
  // first writer's component.
  if (!linked.empty()) {
    for (i64 r = 0; r < n; ++r) {
      const i64* it = part.coords(r);
      for (const FlatAccess* fa : linked) {
        const i64 first = fa->table[cell_of(*fa, it)] - 1;
        if (first >= 0 && first != r) uf_unite(parent, first, r);
      }
    }
  }

  // Classes: every root is its component's first iteration and every
  // parent precedes its child, so one ascending sweep numbers the roots
  // in rank order (a prefix count over the roots) and hands every other
  // iteration its parent's class — in place, since a parent's slot already
  // holds its class when its child reads it.
  i64 num_classes = 0;
  for (i64 it = 0; it < n; ++it)
    parent[it] = parent[it] == it ? num_classes++ : parent[parent[it]];

  // CSR: a counting sort by class, members in ascending rank order. Class
  // c counts into offsets_[c + 2], so after the prefix sum offsets_[c + 1]
  // is c's start and serves as its scatter cursor, ending as c + 1's start.
  part.offsets_.assign(static_cast<std::size_t>(num_classes) + 2, 0);
  for (i64 it = 0; it < n; ++it) ++part.offsets_[static_cast<std::size_t>(parent[it]) + 2];
  for (std::size_t k = 1; k < part.offsets_.size(); ++k)
    part.offsets_[k] += part.offsets_[k - 1];
  part.members_.resize(static_cast<std::size_t>(n));
  for (i64 it = 0; it < n; ++it)
    part.members_[static_cast<std::size_t>(
        part.offsets_[static_cast<std::size_t>(parent[it]) + 1]++)] = it;
  part.offsets_.pop_back();

  InspectStats& st = part.stats_;
  st.iterations = n;
  st.classes = num_classes;
  st.written_cells = written_cells;
  for (i64 c = 0; c < num_classes; ++c) {
    i64 sz = part.class_size(c);
    st.max_component = std::max(st.max_component, sz);
    if (sz >= 2) {
      ++st.chains;
      st.dependent_iterations += sz;
    }
  }
  st.inspect_ns = now_ns() - t0;
  return part;
}

}  // namespace vdep::inspect
