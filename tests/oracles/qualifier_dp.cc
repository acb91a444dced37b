#include "tests/oracles/qualifier_dp.h"

#include <utility>

namespace xvu {

std::vector<uint8_t> QualifierDp::Eval(const FilterExpr& q) const {
  size_t cap = dag_->capacity();
  std::vector<uint8_t> val(cap, 0);
  switch (q.kind()) {
    case FilterExpr::Kind::kLabelEq: {
      for (NodeId v : order_->order()) {
        val[v] = dag_->node(v).type == q.label() ? 1 : 0;
      }
      return val;
    }
    case FilterExpr::Kind::kAnd: {
      std::vector<uint8_t> a = Eval(*q.lhs());
      std::vector<uint8_t> b = Eval(*q.rhs());
      for (size_t i = 0; i < cap; ++i) val[i] = a[i] && b[i];
      return val;
    }
    case FilterExpr::Kind::kOr: {
      std::vector<uint8_t> a = Eval(*q.lhs());
      std::vector<uint8_t> b = Eval(*q.rhs());
      for (size_t i = 0; i < cap; ++i) val[i] = a[i] || b[i];
      return val;
    }
    case FilterExpr::Kind::kNot: {
      std::vector<uint8_t> a = Eval(*q.lhs());
      for (NodeId v : order_->order()) val[v] = !a[v];
      return val;
    }
    case FilterExpr::Kind::kPath:
      return PathExists(Normalize(q.path()), nullptr);
    case FilterExpr::Kind::kPathEq: {
      const std::string& s = q.value();
      return PathExists(Normalize(q.path()), &s);
    }
  }
  return val;
}

std::vector<uint8_t> QualifierDp::PathExists(
    const NormalPath& np, const std::string* text_eq) const {
  size_t cap = dag_->capacity();
  size_t n = np.steps.size();
  // exist[i][v]: the suffix starting at step i matches from v.
  // Computed for i = n down to 0; the base case encodes the optional
  // string-value comparison.
  std::vector<uint8_t> next(cap, 0);
  for (NodeId v : order_->order()) {
    next[v] = text_eq == nullptr || dag_->TextOf(v) == *text_eq ? 1 : 0;
  }
  for (size_t i = n; i > 0; --i) {
    const NormalStep& s = np.steps[i - 1];
    std::vector<uint8_t> cur(cap, 0);
    switch (s.kind) {
      case NormalStep::Kind::kFilter: {
        std::vector<uint8_t> fv = Eval(*s.filter);
        for (NodeId v : order_->order()) cur[v] = fv[v] && next[v];
        break;
      }
      case NormalStep::Kind::kLabel: {
        for (NodeId v : order_->order()) {
          for (NodeId c : dag_->children(v)) {
            if (next[c] && dag_->node(c).type == s.label) {
              cur[v] = 1;
              break;
            }
          }
        }
        break;
      }
      case NormalStep::Kind::kWildcard: {
        for (NodeId v : order_->order()) {
          for (NodeId c : dag_->children(v)) {
            if (next[c]) {
              cur[v] = 1;
              break;
            }
          }
        }
        break;
      }
      case NormalStep::Kind::kDescOrSelf: {
        // desc(q, v) = next(v) ∨ ∃ child c: desc(q, c) — the dynamic
        // program of Section 3.2, evaluated in topological order so every
        // child is final before its parents are visited.
        for (NodeId v : order_->order()) {
          if (next[v]) {
            cur[v] = 1;
            continue;
          }
          for (NodeId c : dag_->children(v)) {
            if (cur[c]) {
              cur[v] = 1;
              break;
            }
          }
        }
        break;
      }
    }
    next = std::move(cur);
  }
  return next;
}

CachedEval EvaluateTracedWithQualifierDp(const DagView& dag,
                                         const TopoOrder& order,
                                         const Reachability& reach,
                                         const Path& p) {
  QualifierDp dp(&dag, &order);
  CachedEval out;
  out.np = Normalize(p);
  const size_t cap = dag.capacity();
  const size_t n = out.np.steps.size();
  // The forward pass with all n+1 levels materialized, as
  // XPathEvaluator::EvaluateTraced keeps them.
  std::vector<DenseNodeSet>& reached = out.reached;
  reached.reserve(n + 1);
  reached.emplace_back(cap);
  if (dag.root() != kInvalidNode) reached[0].Add(dag.root());
  for (size_t i = 0; i < n; ++i) {
    const NormalStep& s = out.np.steps[i];
    const DenseNodeSet& cur = reached[i];
    DenseNodeSet next(cap);
    switch (s.kind) {
      case NormalStep::Kind::kFilter: {
        if (!cur.items.empty()) {
          std::vector<uint8_t> fv = dp.Eval(*s.filter);
          for (NodeId v : cur.items) {
            if (fv[v]) next.Add(v);
          }
        }
        break;
      }
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        for (NodeId v : cur.items) {
          for (NodeId c : dag.children(v)) {
            if (s.kind == NormalStep::Kind::kLabel &&
                dag.node(c).type != s.label) {
              continue;
            }
            next.Add(c);
          }
        }
        break;
      case NormalStep::Kind::kDescOrSelf:
        for (NodeId v : cur.items) {
          next.Add(v);
          for (NodeId d : reach.Descendants(v)) next.Add(d);
        }
        break;
    }
    reached.push_back(std::move(next));
  }
  XPathEvaluator ev(&dag, &reach);
  out.result = ev.FinishFromTrace(out.np, reached);
  return out;
}

}  // namespace xvu
