#ifndef XVU_TESTS_ORACLES_QUALIFIER_DP_H_
#define XVU_TESTS_ORACLES_QUALIFIER_DP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "src/xpath/ast.h"
#include "src/xpath/normal_form.h"

namespace xvu {

/// The bottom-up qualifier DP of Section 3.2: val(q, v) for every live
/// node at once, by one pass over the topological order L per filter
/// sub-expression and per step of each filter path (desc(q, v) for `//`
/// steps reads the children's values, final in L's descendants-first
/// order). It fills a bitmap over the whole view whatever the context.
/// The differential tests check NodeFilterEval against it, and
/// bench_ablation_xpath times production evaluation against it.
class QualifierDp {
 public:
  QualifierDp(const DagView* dag, const TopoOrder* order)
      : dag_(dag), order_(order) {}

  /// val(q, v) for every live node, indexed by NodeId.
  std::vector<uint8_t> Eval(const FilterExpr& q) const;

 private:
  /// exists-semantics of a relative path from each node; with `text_eq`
  /// the node reached must also have that string value (p = "s").
  std::vector<uint8_t> PathExists(const NormalPath& np,
                                  const std::string* text_eq) const;

  const DagView* dag_;
  const TopoOrder* order_;
};

/// A whole traced evaluation whose forward pass answers each filter step
/// from the whole-view DP bitmap, followed by
/// XPathEvaluator::FinishFromTrace: the evaluation that
/// XPathEvaluator::EvaluateTraced must reproduce exactly (`reached` in
/// order, `selected`, `parent_edges`, `side_effect_nodes`).
CachedEval EvaluateTracedWithQualifierDp(const DagView& dag,
                                         const TopoOrder& order,
                                         const Reachability& reach,
                                         const Path& p);

}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_QUALIFIER_DP_H_
