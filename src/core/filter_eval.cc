#include "src/core/filter_eval.h"

#include <utility>

namespace xvu {

bool NodeFilterEval::Eval(const FilterExpr& q, NodeId v) {
  switch (q.kind()) {
    case FilterExpr::Kind::kLabelEq:
      return dag_.node(v).type == q.label();
    case FilterExpr::Kind::kAnd:
      return Eval(*q.lhs(), v) && Eval(*q.rhs(), v);
    case FilterExpr::Kind::kOr:
      return Eval(*q.lhs(), v) || Eval(*q.rhs(), v);
    case FilterExpr::Kind::kNot:
      return !Eval(*q.lhs(), v);
    case FilterExpr::Kind::kPath:
    case FilterExpr::Kind::kPathEq:
      return Match(&Cached(q), 0, v);
  }
  return false;
}

NodeFilterEval::PerFilter& NodeFilterEval::Cached(const FilterExpr& q) {
  auto it = filters_.find(&q);
  if (it == filters_.end()) {
    PerFilter pf;
    pf.np = Normalize(q.path());
    if (q.kind() == FilterExpr::Kind::kPathEq) pf.text_eq = &q.value();
    pf.memo.resize(pf.np.steps.size());
    // Map nodes do not move on rehash, so the PerFilter pointers that
    // Match holds stay valid while nested filters are added.
    it = filters_.emplace(&q, std::move(pf)).first;
  }
  return it->second;
}

std::vector<uint8_t>& NodeFilterEval::Memo(PerFilter* pf, size_t i) {
  std::vector<uint8_t>& m = pf->memo[i];
  if (m.empty()) m.assign(dag_.capacity(), kUnknown);
  return m;
}

bool NodeFilterEval::Match(PerFilter* pf, size_t i, NodeId v) {
  if (i == pf->np.steps.size()) {
    return pf->text_eq == nullptr || dag_.TextOf(v) == *pf->text_eq;
  }
  const NormalStep& s = pf->np.steps[i];
  if (s.kind == NormalStep::Kind::kDescOrSelf) return DescOrSelf(pf, i, v);
  // memo[i] is never resized once allocated, so the reference survives
  // the recursion into later steps and nested filters.
  uint8_t& state = Memo(pf, i)[v];
  if (state != kUnknown) return state == kTrue;
  bool r = false;
  switch (s.kind) {
    case NormalStep::Kind::kFilter:
      r = Eval(*s.filter, v) && Match(pf, i + 1, v);
      break;
    case NormalStep::Kind::kLabel:
      for (NodeId c : dag_.children(v)) {
        if (dag_.node(c).type == s.label && Match(pf, i + 1, c)) {
          r = true;
          break;
        }
      }
      break;
    case NormalStep::Kind::kWildcard:
      for (NodeId c : dag_.children(v)) {
        if (Match(pf, i + 1, c)) {
          r = true;
          break;
        }
      }
      break;
    case NormalStep::Kind::kDescOrSelf:
      break;  // answered by DescOrSelf above
  }
  state = r ? kTrue : kFalse;
  return r;
}

bool NodeFilterEval::DescOrSelf(PerFilter* pf, size_t i, NodeId v) {
  std::vector<uint8_t>& memo = Memo(pf, i);
  if (memo[v] != kUnknown) return memo[v] == kTrue;
  // Depth-first over v's cone. A node is entered once: if match(i+1, u)
  // holds it is decided true at once, otherwise it is pushed and its
  // children are scanned. A node whose children are all exhausted is
  // false. A true answer anywhere makes every node on the stack true,
  // since each of them is an ancestor of it; the walk stops there and
  // leaves the rest of the cone undecided for a later call.
  struct Frame {
    NodeId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto enter = [&](NodeId u) {
    if (Match(pf, i + 1, u)) {
      memo[u] = kTrue;
      return true;
    }
    stack.push_back({u, 0});
    return false;
  };
  bool found = enter(v);
  while (!found && !stack.empty()) {
    Frame& top = stack.back();
    const std::vector<NodeId>& kids = dag_.children(top.node);
    if (top.next_child == kids.size()) {
      memo[top.node] = kFalse;
      stack.pop_back();
      continue;
    }
    NodeId c = kids[top.next_child++];
    if (memo[c] == kTrue) {
      found = true;
    } else if (memo[c] == kUnknown) {
      found = enter(c);  // may reallocate `stack`; `top` is not used again
    }
  }
  if (found) {
    for (const Frame& f : stack) memo[f.node] = kTrue;
  }
  return found;
}

}  // namespace xvu
