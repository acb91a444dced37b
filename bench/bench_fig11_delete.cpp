// Reproduces Fig.11(a)-(c): deletion performance for workload classes
// W1 ("//" + value filters), W2 ("/" + value filters) and W3 ("/" +
// structural and value filters) as a function of the database size |C|.
//
// Each iteration applies one deletion statement; counters break the time
// into the paper's three constituents:
//   xpath_ms     (a) XPath evaluation on the DAG
//   translate_ms (b) ∆X→∆V→∆R translation + update execution
//   maintain_ms  (c) maintenance of M and L
//
// Shapes to check against the paper: near-linear scaling in |C|; (a)
// dominates deletions; W1 is the most expensive class (its "//" produces
// the largest Ep(r)); (c) is comparatively high. The paper runs (c) in
// the background; here it runs inside the write, so it counts toward
// the write's latency.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace xvu {
namespace bench {
namespace {

void BM_Delete(benchmark::State& state, WorkloadClass cls) {
  size_t n = static_cast<size_t>(state.range(0));
  UpdateSystem* sys = SystemFor(n);
  uint64_t seed = 500 + static_cast<uint64_t>(state.range(0));
  std::vector<std::string> stmts;
  size_t next = 0;
  double xpath = 0, translate = 0, maintain = 0;
  size_t accepted = 0, rejected = 0;
  for (auto _ : state) {
    if (next >= stmts.size()) {
      state.PauseTiming();
      auto w = MakeDeletionWorkload(cls, sys->database(), 64, seed++);
      if (!w.ok()) {
        state.SkipWithError(w.status().ToString().c_str());
        break;
      }
      stmts = std::move(*w);
      next = 0;
      state.ResumeTiming();
    }
    Status st = sys->ApplyStatement(stmts[next++]);
    const UpdateStats& us = sys->last_stats();
    xpath += us.xpath_seconds;
    translate += us.translate_seconds;
    maintain += us.maintain_seconds;
    if (st.ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  double iters = static_cast<double>(state.iterations());
  if (iters > 0) {
    state.counters["xpath_ms"] = xpath * 1e3 / iters;
    state.counters["translate_ms"] = translate * 1e3 / iters;
    state.counters["maintain_ms"] = maintain * 1e3 / iters;
    state.counters["accepted"] = static_cast<double>(accepted);
    state.counters["rejected"] = static_cast<double>(rejected);
  }
}

void RegisterAll() {
  struct {
    const char* name;
    WorkloadClass cls;
  } classes[] = {{"Fig11a_W1_delete", WorkloadClass::kW1},
                 {"Fig11b_W2_delete", WorkloadClass::kW2},
                 {"Fig11c_W3_delete", WorkloadClass::kW3}};
  for (const auto& c : classes) {
    for (size_t n : Sizes()) {
      benchmark::RegisterBenchmark(c.name, BM_Delete, c.cls)
          ->Arg(static_cast<int64_t>(n))
          ->Unit(benchmark::kMillisecond)
          ->Iterations(10);  // ten operations per class, as in the paper
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace xvu

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  xvu::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
