// Reproduces Fig.10(b): statistics of the synthetic datasets — number of
// published C subtrees (tree instances), the compressed DAG size, and the
// sizes of the reachability matrix M and topological order L.
//
// Shape to check against the paper: the DAG is much smaller than the
// published tree (subtree sharing ~31%), and |M|, |L| grow near-linearly
// with |C|.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"

namespace xvu {
namespace bench {
namespace {

void PrintStatsTable() {
  std::printf(
      "\n=== Fig.10(b): dataset statistics ===\n"
      "%10s %14s %12s %10s %12s %12s %10s\n",
      "|C|", "tree C inst.", "DAG nodes", "DAG edges", "|V| (rows)", "|M|",
      "|L|");
  for (size_t n : Sizes()) {
    UpdateSystem* sys = SystemFor(n);
    const DagView& dag = sys->dag();
    size_t tree_c = 0;
    // Count C instances in the tree expansion: occurrences of C nodes =
    // number of root-to-node paths; derived from per-node path counts.
    std::vector<size_t> paths(dag.capacity(), 0);
    paths[dag.root()] = 1;
    for (auto it = sys->topo().order().rbegin();
         it != sys->topo().order().rend(); ++it) {
      NodeId v = *it;  // ancestors first
      for (NodeId c : dag.children(v)) paths[c] += paths[v];
    }
    for (NodeId v : dag.LiveNodes()) {
      if (dag.node(v).type == "C") tree_c += paths[v];
    }
    std::printf("%10zu %14zu %12zu %10zu %12zu %12zu %10zu\n", n, tree_c,
                dag.num_nodes(), dag.num_edges(),
                sys->store().TotalEdgeRows(), sys->reachability().size(),
                sys->topo().size());
  }
  std::printf("\n");
}

void BM_Publish(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 1000;
  for (auto _ : state) {
    UpdateSystem* sys = FreshSystemFor(n, seed++);
    benchmark::DoNotOptimize(sys);
  }
  state.counters["dag_nodes"] =
      static_cast<double>(SystemFor(n)->dag().num_nodes());
}

void RegisterAll() {
  for (size_t n : Sizes()) {
    benchmark::RegisterBenchmark("BM_Publish", BM_Publish)
        ->Arg(static_cast<int64_t>(n))
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace xvu

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  xvu::bench::PrintStatsTable();
  xvu::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
