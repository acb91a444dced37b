#ifndef XVU_CORE_DELTA_EVAL_H_
#define XVU_CORE_DELTA_EVAL_H_

#include <vector>

#include "src/core/evaluator.h"
#include "src/dag/dag_view.h"
#include "src/dag/journal.h"
#include "src/dag/reachability.h"

namespace xvu {

/// Delta maintenance of cached XPath evaluations — the paper's M/L
/// maintenance idea applied to cached query results.
///
/// A CachedEval holds the forward trace reached[0..n] of a normal-form
/// path at some DAG version. TryPatchEval brings it to the *current*
/// version by replaying the ∆V journal window against the trace instead
/// of re-evaluating:
///
///  - Addition-only windows over negation-free paths are monotone: new
///    nodes and edges can only enlarge every reached[i], so a worklist
///    closure over (step, node) pairs — label/wildcard transitions along
///    added edges, descendant-axis cone extensions through the maintained
///    M, and per-node filter re-checks (NodeFilterEval) on the
///    ancestors-or-self of the added edges' parent endpoints (the only
///    nodes whose subtrees, and hence downward-filter values, changed) —
///    reconstructs the exact fixpoint of a fresh forward pass.
///  - Windows containing removals (and paths with negation) take the
///    exact general patcher: level by level, a candidate set bounds the
///    nodes whose membership can have changed — the previous level's
///    flips, the endpoints of changed edges, the removed nodes, plus the
///    current-M ancestor closure for filter levels and descendant closure
///    for // levels (old-graph chains decompose into current-graph
///    segments joined at changed-edge endpoints, so closing over the
///    current M from those seeds covers every old chain) — and each
///    candidate's membership is recomputed from the step's definition
///    against the current DAG, subtracting exact cones instead of
///    invalidating the entry.
///  - The backward phase (pruning, side effects, Ep(r)) is then re-derived
///    from the patched trace via XPathEvaluator::FinishFromTrace.
///
/// Returns false without touching `entry` when the window is not
/// patchable — it contains a root change, the entry carries no trace, or
/// the window is too large for the patch to be worth it — and the caller
/// must fall back to a fresh evaluation.
///
/// Preconditions: `reach` is the maintained M of the *current* DAG (the
/// engine maintains it before the next batch's lookups run), and
/// `journal` is exactly JournalSince(the entry's version).
bool TryPatchEval(const DagView& dag, const Reachability& reach,
                  const std::vector<DagDelta>& journal, CachedEval* entry);

/// True iff the path's filters are negation-free (recursively, including
/// filters nested inside filter paths) — the class whose evaluation is
/// monotone under structural additions.
bool PathIsMonotone(const NormalPath& np);

}  // namespace xvu

#endif  // XVU_CORE_DELTA_EVAL_H_
