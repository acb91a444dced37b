#include "src/dag/maintenance.h"

#include <cstdint>

namespace xvu {

std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots) {
  std::vector<uint8_t> seen(dag.capacity(), 0);
  std::vector<NodeId> out, stack(roots.begin(), roots.end());
  out.reserve(roots.size() * 2);
  stack.reserve(roots.size() * 2);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (seen[v]) continue;
    seen[v] = 1;
    out.push_back(v);
    for (NodeId c : dag.children(v)) stack.push_back(c);
  }
  return out;
}

}  // namespace xvu
