#include "tests/oracles/xpath_naive.h"

#include <utility>

namespace xvu {

std::set<NodeId> NaiveXPath::Eval(const Path& p) const {
  if (dag_->root() == kInvalidNode) return {};
  return Walk(Normalize(p), {dag_->root()});
}

std::set<NodeId> NaiveXPath::Walk(const NormalPath& np,
                                  std::set<NodeId> cur) const {
  for (const NormalStep& s : np.steps) {
    std::set<NodeId> next;
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        for (NodeId v : cur) {
          if (Filter(*s.filter, v)) next.insert(v);
        }
        break;
      case NormalStep::Kind::kLabel:
        for (NodeId v : cur) {
          for (NodeId c : dag_->children(v)) {
            if (dag_->node(c).type == s.label) next.insert(c);
          }
        }
        break;
      case NormalStep::Kind::kWildcard:
        for (NodeId v : cur) {
          for (NodeId c : dag_->children(v)) next.insert(c);
        }
        break;
      case NormalStep::Kind::kDescOrSelf:
        for (NodeId v : cur) DescOrSelf(v, &next);
        break;
    }
    cur = std::move(next);
  }
  return cur;
}

void NaiveXPath::DescOrSelf(NodeId v, std::set<NodeId>* out) const {
  if (!out->insert(v).second) return;
  for (NodeId c : dag_->children(v)) DescOrSelf(c, out);
}

bool NaiveXPath::Filter(const FilterExpr& q, NodeId v) const {
  switch (q.kind()) {
    case FilterExpr::Kind::kLabelEq:
      return dag_->node(v).type == q.label();
    case FilterExpr::Kind::kAnd:
      return Filter(*q.lhs(), v) && Filter(*q.rhs(), v);
    case FilterExpr::Kind::kOr:
      return Filter(*q.lhs(), v) || Filter(*q.rhs(), v);
    case FilterExpr::Kind::kNot:
      return !Filter(*q.lhs(), v);
    case FilterExpr::Kind::kPath:
      return !Walk(Normalize(q.path()), {v}).empty();
    case FilterExpr::Kind::kPathEq:
      for (NodeId u : Walk(Normalize(q.path()), {v})) {
        if (dag_->TextOf(u) == q.value()) return true;
      }
      return false;
  }
  return false;
}

}  // namespace xvu
