#ifndef XVU_TESTS_TEST_UTIL_H_
#define XVU_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dag/dag_view.h"

namespace xvu {
namespace testing_util {

/// Builds a random rooted DAG with `n` nodes: node 0 is the root, every
/// node i > 0 gets 1 + extra edges from random lower-numbered nodes, so
/// the graph is acyclic and fully reachable from the root.
inline DagView RandomDag(size_t n, double extra_edge_prob, uint64_t seed) {
  DagView dag;
  Rng rng(seed);
  std::vector<NodeId> ids;
  for (size_t i = 0; i < n; ++i) {
    // A couple of distinct types so label tests are non-trivial.
    std::string type = i == 0 ? "root" : (i % 3 == 0 ? "a" : "b");
    ids.push_back(
        dag.GetOrAddNode(type, {Value::Int(static_cast<int64_t>(i))}));
  }
  dag.SetRoot(ids[0]);
  for (size_t i = 1; i < n; ++i) {
    NodeId parent = ids[rng.Below(i)];
    dag.AddEdge(parent, ids[i]);
    while (rng.Chance(extra_edge_prob)) {
      dag.AddEdge(ids[rng.Below(i)], ids[i]);
    }
  }
  return dag;
}

/// Drops the trailing [cache] section of UpdateSystem::DebugFingerprint:
/// a rejected op deliberately keeps its snapshot-version evaluations
/// cached (a resubmit hits them; PathEvalCache::RollbackScope), so a
/// pre-op/post-rejection comparison excludes the cache.
inline std::string StripCache(const std::string& fp) {
  size_t at = fp.rfind("[cache]");
  return at == std::string::npos ? fp : fp.substr(0, at);
}

}  // namespace testing_util
}  // namespace xvu

#endif  // XVU_TESTS_TEST_UTIL_H_
