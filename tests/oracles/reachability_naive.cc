#include "tests/oracles/reachability_naive.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace xvu {

Reachability NaiveReachability(const DagView& dag) {
  const size_t cap = dag.capacity();
  std::vector<Reachability::Row> anc(cap);
  // Per-node DFS collecting all descendants; seen[v] == a + 1 marks v as
  // visited by a's search. Each d reached from a gains ancestor a.
  std::vector<size_t> seen(cap, 0);
  for (NodeId a : dag.LiveNodes()) {
    std::vector<NodeId> stack(dag.children(a).begin(), dag.children(a).end());
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      if (seen[v] == static_cast<size_t>(a) + 1) continue;
      seen[v] = static_cast<size_t>(a) + 1;
      anc[v].push_back(a);
      for (NodeId c : dag.children(v)) stack.push_back(c);
    }
  }
  std::vector<std::pair<NodeId, Reachability::Row>> rows;
  for (size_t d = 0; d < cap; ++d) {
    if (anc[d].empty()) continue;
    std::sort(anc[d].begin(), anc[d].end());
    rows.emplace_back(static_cast<NodeId>(d), std::move(anc[d]));
  }
  Reachability m;
  m.SetAncestorRows(std::move(rows), nullptr, nullptr);
  return m;
}

}  // namespace xvu
