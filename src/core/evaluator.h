#ifndef XVU_CORE_EVALUATOR_H_
#define XVU_CORE_EVALUATOR_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"  // the compatibility constructor
#include "src/xpath/ast.h"
#include "src/xpath/normal_form.h"

namespace xvu {

/// Output of evaluating an XPath expression p on the DAG (Section 3.2).
struct EvalResult {
  /// r[[p]]: nodes reached by p from the root.
  std::vector<NodeId> selected;
  /// Ep(r): (parent u, selected v) pairs such that p reaches v through u.
  /// Needed by Algorithm Xdelete; a node can appear with several parents
  /// (DAGs, unlike trees, have multiple incoming edges).
  std::vector<std::pair<NodeId, NodeId>> parent_edges;
  /// S: nodes affected by the update but not reached via p. Non-empty iff
  /// the update has XML side effects (shared subtrees reachable through
  /// paths that p does not select).
  std::vector<NodeId> side_effect_nodes;

  bool has_side_effects() const { return !side_effect_nodes.empty(); }
};

/// Node set as vector + dense membership mask (the evaluator's working
/// representation, also persisted in cached evaluation traces).
struct DenseNodeSet {
  std::vector<NodeId> items;
  std::vector<uint8_t> mask;

  explicit DenseNodeSet(size_t cap = 0) : mask(cap, 0) {}
  bool Contains(NodeId v) const { return v < mask.size() && mask[v] != 0; }
  void Add(NodeId v) {
    EnsureCapacity(static_cast<size_t>(v) + 1);
    if (!mask[v]) {
      mask[v] = 1;
      items.push_back(v);
    }
  }
  void EnsureCapacity(size_t cap) {
    if (cap > mask.size()) mask.resize(cap, 0);
  }
  /// Marks `v` absent; `items` keeps a stale copy until CompactItems().
  /// Removal-window delta patching uses the pair to take nodes out of a
  /// trace level in O(1) per node plus one O(level) compaction.
  void RemoveDeferred(NodeId v) {
    if (v < mask.size()) mask[v] = 0;
  }
  /// Drops items whose mask bit was cleared, preserving the order of the
  /// survivors (trace item order feeds the backward pass and must stay
  /// deterministic).
  void CompactItems() {
    items.erase(std::remove_if(items.begin(), items.end(),
                               [this](NodeId v) { return mask[v] == 0; }),
                items.end());
  }
};

/// A full evaluation: the result plus the forward trace it was derived
/// from. `reached[i]` is the node set after normalized step i
/// (reached[0] = {root}); the trace is what the delta-patcher replays the
/// ∆V journal against to bring a cached result forward across DAG
/// versions without re-evaluating (core/delta_eval.h).
struct CachedEval {
  NormalPath np;
  std::vector<DenseNodeSet> reached;
  EvalResult result;
};

/// XPath evaluator over a DAG stored as a DagView (Section 3.2). A
/// forward pass walks the normalized steps from the root, keeping the
/// node set reached after each step: label and wildcard steps follow
/// child edges, `//` steps take each frontier node's row of the
/// maintained matrix M, and filter steps ask NodeFilterEval
/// (core/filter_eval.h) about each frontier node. A backward pass then
/// prunes the trace to the derivations of the selected nodes and derives
/// r[[p]], Ep(r) and the side-effect set S.
///
/// Cost: label and wildcard steps read the children of their frontier.
/// A `//` step reads the M rows of its frontier, and the backward pass
/// the ancestor and descendant rows of the pruned sets; each of these is
/// O(|M|) in the worst case (a frontier holding the root). The filter
/// steps of one evaluation share one NodeFilterEval, so together they
/// cost O(|p| · (|V| + |E|)) at most, and a filter asked about a few
/// nodes reads only their cones. Every step also allocates |V|-byte
/// masks (its trace level, and a memo per filter-path step). In all,
/// O(|p| · (|V| + |E| + |M|)).
///
/// Evaluate* and FinishFromTrace are const and keep their working state
/// local, so one evaluator may serve concurrent callers.
class XPathEvaluator {
 public:
  /// `reach` is the maintained matrix M of `dag` (it resolves // steps
  /// and the ancestor side-effect checks).
  XPathEvaluator(const DagView* dag, const Reachability* reach)
      : dag_(dag), reach_(reach) {}
  /// Compatibility overload for xvubench/driver.cc, which still passes
  /// the topological order L; `order` is ignored.
  XPathEvaluator(const DagView* dag, const TopoOrder* /*order*/,
                 const Reachability* reach)
      : XPathEvaluator(dag, reach) {}

  Result<EvalResult> Evaluate(const Path& p) const;

  /// Evaluate keeping the forward trace, for PathEvalCache entries that
  /// the delta-patcher can later bring forward across DAG versions.
  Result<CachedEval> EvaluateTraced(const Path& p) const;

  /// The backward phase (derivation pruning, side-effect detection, Ep(r)
  /// extraction) on an already-computed forward trace. Used by Evaluate
  /// and by the delta-patcher after it has patched `reached`.
  EvalResult FinishFromTrace(const NormalPath& np,
                             const std::vector<DenseNodeSet>& reached) const;

 private:
  /// The forward phase. With `full_trace` all n+1 sets are materialized
  /// (padded with empties once the frontier dies out) so the trace can be
  /// delta-patched later; without it the pass stops at a dead frontier.
  std::vector<DenseNodeSet> ForwardPass(const NormalPath& np,
                                        bool full_trace) const;

  const DagView* dag_;
  const Reachability* reach_;
};

}  // namespace xvu

#endif  // XVU_CORE_EVALUATOR_H_
