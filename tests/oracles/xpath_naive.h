#ifndef XVU_TESTS_ORACLES_XPATH_NAIVE_H_
#define XVU_TESTS_ORACLES_XPATH_NAIVE_H_

#include <set>

#include "src/dag/dag_view.h"
#include "src/xpath/ast.h"
#include "src/xpath/normal_form.h"

namespace xvu {

/// Direct recursive XPath evaluation, set at a time: no memo, no
/// topological order, no reachability matrix. Every filter test re-walks
/// the relative path from its node, and `//` re-collects the cone by DFS.
/// Because the paper's filters only look downward, a filter's value at a
/// tree occurrence equals its value at the DAG node, so the oracle can
/// work on DAG node sets directly. The reference that the evaluator
/// tests, the filter differential test and bench_ablation_xpath check
/// production evaluation against; its cost grows with the cones it
/// re-walks, so keep it to small and medium views.
class NaiveXPath {
 public:
  explicit NaiveXPath(const DagView* dag) : dag_(dag) {}

  /// r[[p]] from the view root.
  std::set<NodeId> Eval(const Path& p) const;

  /// val(q, v): the filter's value at node `v`.
  bool Filter(const FilterExpr& q, NodeId v) const;

 private:
  std::set<NodeId> Walk(const NormalPath& np, std::set<NodeId> cur) const;
  void DescOrSelf(NodeId v, std::set<NodeId>* out) const;

  const DagView* dag_;
};

}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_XPATH_NAIVE_H_
