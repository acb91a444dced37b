#include "src/core/evaluator.h"

#include "src/core/filter_eval.h"

namespace xvu {

std::vector<DenseNodeSet> XPathEvaluator::ForwardPass(
    const NormalPath& np, bool full_trace) const {
  size_t cap = dag_->capacity();
  size_t n = np.steps.size();
  // reached[i] = node set after step i (reached[0] = {root}). For a full
  // trace all n+1 sets are materialized even when the frontier dies out
  // early — the trace is replayed by the delta-patcher, which may revive
  // a dead frontier when new structure arrives.
  std::vector<DenseNodeSet> reached;
  reached.reserve(n + 1);
  NodeFilterEval filters(*dag_);  // memo shared by every filter step
  reached.emplace_back(cap);
  if (dag_->root() != kInvalidNode) reached[0].Add(dag_->root());
  for (size_t i = 0; i < n; ++i) {
    const NormalStep& s = np.steps[i];
    const DenseNodeSet& cur = reached[i];
    DenseNodeSet next(cap);
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        for (NodeId v : cur.items) {
          if (filters.Eval(*s.filter, v)) next.Add(v);
        }
        break;
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : cur.items) {
          for (NodeId c : dag_->children(v)) {
            if (s.kind == NormalStep::Kind::kLabel &&
                dag_->node(c).type != s.label) {
              continue;
            }
            next.Add(c);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf:
        for (NodeId v : cur.items) {
          next.Add(v);
          for (NodeId d : reach_->Descendants(v)) next.Add(d);
        }
        break;
    }
    reached.push_back(std::move(next));
    if (!full_trace && reached.back().items.empty()) {
      break;  // r[[p]] = ∅ and no trace wanted: skip the dead suffix
    }
  }
  return reached;
}

Result<EvalResult> XPathEvaluator::Evaluate(const Path& p) const {
  NormalPath np = Normalize(p);
  std::vector<DenseNodeSet> reached = ForwardPass(np, /*full_trace=*/false);
  return FinishFromTrace(np, reached);
}

Result<CachedEval> XPathEvaluator::EvaluateTraced(const Path& p) const {
  CachedEval out;
  out.np = Normalize(p);
  out.reached = ForwardPass(out.np, /*full_trace=*/true);
  out.result = FinishFromTrace(out.np, out.reached);
  return out;
}

EvalResult XPathEvaluator::FinishFromTrace(
    const NormalPath& np, const std::vector<DenseNodeSet>& reached) const {
  size_t cap = dag_->capacity();
  size_t n = np.steps.size();
  EvalResult out;
  if (reached.size() <= n || reached[n].items.empty()) {
    return out;  // r[[p]] = ∅: no selection, no side effects
  }

  // Backward pruning: sel[i] ⊆ reached[i] keeps only nodes that lie on a
  // derivation of some finally selected node. Computing side effects on
  // the pruned sets avoids false positives from branches a later filter
  // discards.
  std::vector<DenseNodeSet> sel;
  sel.reserve(n + 1);
  for (size_t i = 0; i <= n; ++i) sel.emplace_back(cap);
  for (NodeId v : reached[n].items) sel[n].Add(v);
  for (size_t i = n; i > 0; --i) {
    const NormalStep& s = np.steps[i - 1];
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        for (NodeId v : sel[i].items) sel[i - 1].Add(v);
        break;
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : sel[i].items) {
          for (NodeId u : dag_->parents(v)) {
            if (reached[i - 1].Contains(u)) sel[i - 1].Add(u);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf:
        for (NodeId v : sel[i].items) {
          if (reached[i - 1].Contains(v)) sel[i - 1].Add(v);
          for (NodeId a : reach_->Ancestors(v)) {
            if (reached[i - 1].Contains(a)) sel[i - 1].Add(a);
          }
        }
        break;
    }
  }

  // Side effects: an edge into an on-path node that no selected
  // derivation uses witnesses a tree occurrence of the modified subtree
  // that p does not select (Section 3.2); its source goes into S.
  DenseNodeSet s_set(cap);
  for (size_t i = 1; i <= n; ++i) {
    const NormalStep& s = np.steps[i - 1];
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        break;  // no movement, no new incoming edges
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : sel[i].items) {
          for (NodeId u : dag_->parents(v)) {
            if (!sel[i - 1].Contains(u)) s_set.Add(u);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf: {
        // Cone = desc-or-self(sel[i-1]); every edge inside the cone is a
        // valid derivation (// accepts any descent). Nodes strictly below
        // the cone top with a parent outside the cone witness unselected
        // occurrences. The cone tops' own incoming edges belong to the
        // previous step.
        DenseNodeSet cone(cap);
        for (NodeId u : sel[i - 1].items) {
          cone.Add(u);
          for (NodeId d : reach_->Descendants(u)) cone.Add(d);
        }
        // anc-or-self(sel[i]): the nodes actually on a descent path.
        DenseNodeSet between(cap);
        for (NodeId v : sel[i].items) {
          between.Add(v);
          for (NodeId a : reach_->Ancestors(v)) between.Add(a);
        }
        for (NodeId w : cone.items) {
          if (sel[i - 1].Contains(w)) continue;  // cone top: previous step
          if (!between.Contains(w)) continue;
          for (NodeId u : dag_->parents(w)) {
            if (!cone.Contains(u)) s_set.Add(u);
          }
        }
        break;
      }
    }
  }
  out.side_effect_nodes = std::move(s_set.items);
  out.selected = sel[n].items;

  // Ep(r): the parents through which p reaches each selected node. With a
  // trailing child step these are the pruned derivation edges; after a
  // trailing // (or the empty path) every incoming edge reaches the node
  // (cf. Example 5's ∆V2 containing both takenBy parents).
  size_t last_move = n;
  while (last_move > 0 &&
         np.steps[last_move - 1].kind == NormalStep::Kind::kFilter) {
    --last_move;
  }
  if (last_move == 0 ||
      np.steps[last_move - 1].kind == NormalStep::Kind::kDescOrSelf) {
    for (NodeId v : sel[n].items) {
      for (NodeId u : dag_->parents(v)) out.parent_edges.emplace_back(u, v);
    }
  } else {
    for (NodeId v : sel[n].items) {
      for (NodeId u : dag_->parents(v)) {
        if (sel[last_move - 1].Contains(u)) {
          out.parent_edges.emplace_back(u, v);
        }
      }
    }
  }
  return out;
}

}  // namespace xvu
