#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "dsl/parser.h"
#include "exec/interpreter.h"

namespace perfbench {

void fill_inputs(vdep::exec::ArrayStore& store, const Program& p) {
  store.fill_pattern();
  if (p.index) {
    vdep::exec::ArrayStore::Buffer& b = store.raw_mutable("B");
    if (b.size() != p.index->size())
      throw std::runtime_error("index data does not match array B's extent");
    std::memcpy(b.data(), p.index->data(), b.size() * sizeof(i64));
  }
}

std::size_t Ledger::add(Program p) {
  auto [it, fresh] = ids_.try_emplace(p.dsl, programs_.size());
  if (fresh) {
    programs_.push_back(std::move(p));
    oracle_.emplace_back();
  }
  return it->second;
}

double Ledger::verify(const std::vector<Request*>& requests, bool log) {
  auto t0 = Clock::now();
  for (Request* r : requests)
    for (const Output& o : r->outputs) {
      Oracle& orc = oracle_[o.program];
      if (orc.done) continue;
      orc.done = true;
      try {
        vdep::loopir::LoopNest nest =
            vdep::dsl::parse_loop_nest(programs_[o.program].dsl);
        vdep::exec::ArrayStore store(nest);
        fill_inputs(store, programs_[o.program]);
        vdep::exec::run_sequential(nest, store);
        orc.digest = store.checksum();
        orc.ok = true;
      } catch (const std::exception& e) {
        orc.error = e.what();
      }
    }
  double oracle_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  int reported = 0;
  auto report = [&](const std::string& what) {
    if (log && reported++ < 5)
      std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  };
  for (Request* r : requests) {
    r->failed = !r->error.empty();
    if (r->failed) report("request error: " + r->error);
    for (const Output& o : r->outputs) {
      const Oracle& orc = oracle_[o.program];
      if (!orc.ok) {
        r->failed = true;
        report("oracle error: " + orc.error);
      } else if (o.checksum != orc.digest) {
        r->failed = true;
        report("digest " + std::to_string(o.checksum) + " != oracle " +
               std::to_string(orc.digest) + " for program #" +
               std::to_string(o.program));
      }
    }
  }
  return oracle_s;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace perfbench
