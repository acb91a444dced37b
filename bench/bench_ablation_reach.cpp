// Ablation A1 (DESIGN.md): Algorithm Reach's topological-order dynamic
// program (Fig.4, O(n·|V|)) against the naive per-node DFS transitive
// closure it replaces.
//
// Shape to check: Reach wins consistently and its advantage grows with
// the DAG size, because the DP shares ancestor sets along edges instead
// of re-walking cones.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "tests/oracles/reachability_naive.h"

namespace xvu {
namespace bench {
namespace {

void BM_Reach(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UpdateSystem* sys = SystemFor(n);
  auto topo = TopoOrder::Compute(sys->dag());
  if (!topo.ok()) {
    state.SkipWithError("cycle");
    return;
  }
  for (auto _ : state) {
    Reachability m = Reachability::Compute(sys->dag(), *topo);
    benchmark::DoNotOptimize(&m);
    state.counters["pairs"] = static_cast<double>(m.size());
  }
}

void BM_NaiveClosure(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  UpdateSystem* sys = SystemFor(n);
  for (auto _ : state) {
    Reachability m = NaiveReachability(sys->dag());
    benchmark::DoNotOptimize(&m);
    state.counters["pairs"] = static_cast<double>(m.size());
  }
}

void RegisterAll() {
  for (size_t n : Sizes()) {
    if (n > 100000) continue;  // the naive closure becomes intractable
    benchmark::RegisterBenchmark("AblationA1_Reach", BM_Reach)
        ->Arg(static_cast<int64_t>(n))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
    benchmark::RegisterBenchmark("AblationA1_NaiveClosure", BM_NaiveClosure)
        ->Arg(static_cast<int64_t>(n))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(2);
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
