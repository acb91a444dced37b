#include "src/core/delta_eval.h"

#include <deque>
#include <unordered_map>
#include <utility>

#include "src/core/filter_eval.h"
#include "src/xpath/normal_form.h"

namespace xvu {

namespace {

bool FilterIsMonotone(const FilterExpr& q);

bool PathFiltersMonotone(const Path& p) {
  for (const PathStep& s : p.steps) {
    for (const FilterPtr& f : s.filters) {
      if (!FilterIsMonotone(*f)) return false;
    }
  }
  return true;
}

bool FilterIsMonotone(const FilterExpr& q) {
  switch (q.kind()) {
    case FilterExpr::Kind::kNot:
      return false;
    case FilterExpr::Kind::kAnd:
    case FilterExpr::Kind::kOr:
      return FilterIsMonotone(*q.lhs()) && FilterIsMonotone(*q.rhs());
    case FilterExpr::Kind::kLabelEq:
      return true;
    case FilterExpr::Kind::kPath:
    case FilterExpr::Kind::kPathEq:
      return PathFiltersMonotone(q.path());
  }
  return false;
}

/// Exact general patcher for windows containing removals (and for
/// non-monotone paths, whose filters may flip in either direction even
/// under additions). Processes the trace level by level: a candidate set
/// bounds every node whose membership at that level can have changed,
/// and each candidate's membership is recomputed from the step's
/// definition against the current DAG, M, and the patched previous
/// level.
///
/// Candidate soundness rests on one decomposition argument: any
/// old-graph ancestor/descendant chain that no longer exists crosses at
/// least one changed edge, so it splits into current-graph segments
/// joined at changed-edge endpoints — closing over the *current* M from
/// those endpoints (plus the previous level's flips) covers every node
/// whose old-graph relationship to the change region is gone.
bool PatchEvalGeneral(const DagView& dag, const Reachability& reach,
                      const std::vector<DagDelta>& journal,
                      CachedEval* entry) {
  const size_t n = entry->np.steps.size();
  const size_t cap = dag.capacity();

  // Window summary: every endpoint touched by a mutation, the changed
  // (added or removed) edges, and the per-parent removed children.
  std::vector<NodeId> touched;
  std::vector<std::pair<NodeId, NodeId>> changed_edges;
  std::unordered_map<NodeId, std::vector<NodeId>> removed_children;
  std::vector<NodeId> changed_nodes;
  for (const DagDelta& d : journal) {
    switch (d.kind) {
      case DagDelta::Kind::kNodeAdded:
      case DagDelta::Kind::kNodeRemoved:
        touched.push_back(d.node);
        changed_nodes.push_back(d.node);
        break;
      case DagDelta::Kind::kEdgeAdded:
        touched.push_back(d.parent);
        touched.push_back(d.child);
        changed_edges.emplace_back(d.parent, d.child);
        break;
      case DagDelta::Kind::kEdgeRemoved:
        touched.push_back(d.parent);
        touched.push_back(d.child);
        changed_edges.emplace_back(d.parent, d.child);
        removed_children[d.parent].push_back(d.child);
        break;
      case DagDelta::Kind::kRootChanged:
        return false;  // caller filtered these; defensive
    }
  }

  for (DenseNodeSet& s : entry->reached) s.EnsureCapacity(cap);

  // The root is pinned at level 0; a window that killed it is a resync,
  // not a patch.
  if (dag.root() == kInvalidNode || !dag.alive(dag.root()) ||
      !entry->reached[0].Contains(dag.root())) {
    return false;
  }

  // Downward-filter values can only change on ancestors-or-self (in the
  // old or new graph — see the decomposition argument above) of a
  // touched node.
  bool has_filter = false;
  for (const NormalStep& s : entry->np.steps) {
    if (s.kind == NormalStep::Kind::kFilter) has_filter = true;
  }
  DenseNodeSet filter_affected(cap);
  if (has_filter) {
    for (NodeId t : touched) {
      filter_affected.Add(t);
      for (NodeId a : reach.Ancestors(t)) filter_affected.Add(a);
    }
  }

  NodeFilterEval filter_eval(dag);
  DenseNodeSet dirty(cap);  // membership flips at the previous level
  for (size_t i = 0; i < n; ++i) {
    const NormalStep& s = entry->np.steps[i];
    DenseNodeSet cand(cap);
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        // No movement: flips come from upstream flips or filter-value
        // changes.
        for (NodeId v : dirty.items) cand.Add(v);
        for (NodeId v : filter_affected.items) cand.Add(v);
        break;
      case NormalStep::Kind::kLabel:
      case NormalStep::Kind::kWildcard:
        // A child's membership changes only if one of its (current or
        // removed) in-edges changed, or a parent's membership flipped.
        for (NodeId d : dirty.items) {
          for (NodeId c : dag.children(d)) cand.Add(c);
          auto it = removed_children.find(d);
          if (it != removed_children.end()) {
            for (NodeId c : it->second) cand.Add(c);
          }
        }
        for (const auto& [u, v] : changed_edges) {
          (void)u;
          cand.Add(v);
        }
        break;
      case NormalStep::Kind::kDescOrSelf: {
        // Seeds: upstream flips, changed-edge children, changed nodes.
        // Closing over the current M from the seeds covers old-graph
        // descendants too (every vanished chain crosses a changed edge
        // whose child endpoint is itself a seed).
        DenseNodeSet seeds(cap);
        for (NodeId v : dirty.items) seeds.Add(v);
        for (const auto& [u, v] : changed_edges) {
          (void)u;
          seeds.Add(v);
        }
        for (NodeId v : changed_nodes) seeds.Add(v);
        for (NodeId v : seeds.items) {
          cand.Add(v);
          for (NodeId d : reach.Descendants(v)) cand.Add(d);
        }
        break;
      }
    }

    DenseNodeSet next_dirty(cap);
    bool removed_any = false;
    for (NodeId v : cand.items) {
      const bool was = entry->reached[i + 1].Contains(v);
      bool now = false;
      if (dag.alive(v)) {
        switch (s.kind) {
          case NormalStep::Kind::kFilter:
            now = entry->reached[i].Contains(v) &&
                  filter_eval.Eval(*s.filter, v);
            break;
          case NormalStep::Kind::kLabel:
            if (dag.node(v).type == s.label) {
              for (NodeId p : dag.parents(v)) {
                if (entry->reached[i].Contains(p)) {
                  now = true;
                  break;
                }
              }
            }
            break;
          case NormalStep::Kind::kWildcard:
            for (NodeId p : dag.parents(v)) {
              if (entry->reached[i].Contains(p)) {
                now = true;
                break;
              }
            }
            break;
          case NormalStep::Kind::kDescOrSelf:
            now = entry->reached[i].Contains(v);
            if (!now) {
              for (NodeId a : reach.Ancestors(v)) {
                if (entry->reached[i].Contains(a)) {
                  now = true;
                  break;
                }
              }
            }
            break;
        }
      }
      if (now == was) continue;
      if (now) {
        entry->reached[i + 1].Add(v);
      } else {
        entry->reached[i + 1].RemoveDeferred(v);
        removed_any = true;
      }
      next_dirty.Add(v);
    }
    if (removed_any) entry->reached[i + 1].CompactItems();
    dirty = std::move(next_dirty);
  }

  XPathEvaluator ev(&dag, &reach);
  entry->result = ev.FinishFromTrace(entry->np, entry->reached);
  return true;
}

}  // namespace

bool PathIsMonotone(const NormalPath& np) {
  for (const NormalStep& s : np.steps) {
    if (s.kind == NormalStep::Kind::kFilter && !FilterIsMonotone(*s.filter)) {
      return false;
    }
  }
  return true;
}

bool TryPatchEval(const DagView& dag, const Reachability& reach,
                  const std::vector<DagDelta>& journal, CachedEval* entry) {
  // Past this window size a fresh evaluation is competitive with the
  // patch's per-entry work; don't bother.
  constexpr size_t kMaxPatchWindow = 4096;
  const size_t n = entry->np.steps.size();
  if (journal.empty() || journal.size() > kMaxPatchWindow) return false;
  if (entry->reached.size() != n + 1) return false;  // entry has no trace
  bool additions_only = true;
  for (const DagDelta& d : journal) {
    if (d.kind == DagDelta::Kind::kRootChanged) {
      return false;  // a root move is a republish, not a patch
    }
    if (d.kind != DagDelta::Kind::kNodeAdded &&
        d.kind != DagDelta::Kind::kEdgeAdded) {
      additions_only = false;
    }
  }
  if (!additions_only || !PathIsMonotone(entry->np)) {
    // Removal windows and non-monotone paths take the exact general
    // patcher: the monotone worklist below only ever *adds* members.
    return PatchEvalGeneral(dag, reach, journal, entry);
  }

  std::vector<std::pair<NodeId, NodeId>> added_edges;
  for (const DagDelta& d : journal) {
    if (d.kind == DagDelta::Kind::kEdgeAdded) {
      added_edges.emplace_back(d.parent, d.child);
    }
    // New nodes need no separate seeding: an isolated node is unreachable
    // by every step (reached[0] is pinned to the root), and a connected
    // one is covered by its edges below.
  }

  for (DenseNodeSet& s : entry->reached) s.EnsureCapacity(dag.capacity());

  NodeFilterEval filter_eval(dag);
  std::deque<std::pair<size_t, NodeId>> work;
  auto add = [&](size_t i, NodeId v) {
    if (!entry->reached[i].Contains(v)) {
      entry->reached[i].Add(v);
      work.emplace_back(i, v);
    }
  };

  // (1) Filter flips on existing frontier members. Downward filters read
  // only a node's cone, so only ancestors-or-self of an added edge's
  // parent endpoint can have changed value — and with additions only,
  // strictly false → true.
  bool has_filter_step = false;
  for (const NormalStep& s : entry->np.steps) {
    if (s.kind == NormalStep::Kind::kFilter) has_filter_step = true;
  }
  if (has_filter_step) {
    DenseNodeSet candidates(dag.capacity());
    for (const auto& [u, v] : added_edges) {
      (void)v;
      candidates.Add(u);
      for (NodeId a : reach.Ancestors(u)) candidates.Add(a);
    }
    for (size_t i = 0; i < n; ++i) {
      const NormalStep& s = entry->np.steps[i];
      if (s.kind != NormalStep::Kind::kFilter) continue;
      for (NodeId x : candidates.items) {
        if (entry->reached[i].Contains(x) &&
            !entry->reached[i + 1].Contains(x) &&
            filter_eval.Eval(*s.filter, x)) {
          add(i + 1, x);
        }
      }
    }
  }

  // (2) Transitions the added edges enable from already-present frontier
  // members. (Edges from members that join *later* are replayed by the
  // worklist, which walks current-DAG children.)
  for (const auto& [u, v] : added_edges) {
    for (size_t i = 0; i < n; ++i) {
      const NormalStep& s = entry->np.steps[i];
      switch (s.kind) {
        case NormalStep::Kind::kFilter:
          break;  // no movement; handled in (1)
        case NormalStep::Kind::kLabel:
          if (entry->reached[i].Contains(u) && dag.node(v).type == s.label) {
            add(i + 1, v);
          }
          break;
        case NormalStep::Kind::kWildcard:
          if (entry->reached[i].Contains(u)) add(i + 1, v);
          break;
        case NormalStep::Kind::kDescOrSelf:
          // The step's output is closed under descendants: the new edge
          // extends the cone below u. (v's own cone closes via the
          // worklist's defining-step rule.)
          if (entry->reached[i + 1].Contains(u)) add(i + 1, v);
          break;
      }
    }
  }

  // (3) Worklist closure: every node that joins a frontier replays its
  // outgoing transitions against the current DAG and maintained M.
  while (!work.empty()) {
    auto [i, x] = work.front();
    work.pop_front();
    if (i > 0 &&
        entry->np.steps[i - 1].kind == NormalStep::Kind::kDescOrSelf) {
      // Defining step is //: close x's descendant cone into the frontier.
      for (NodeId d : reach.Descendants(x)) add(i, d);
    }
    if (i == n) continue;
    const NormalStep& s = entry->np.steps[i];
    switch (s.kind) {
      case NormalStep::Kind::kFilter:
        if (filter_eval.Eval(*s.filter, x)) add(i + 1, x);
        break;
      case NormalStep::Kind::kLabel:
        for (NodeId c : dag.children(x)) {
          if (dag.node(c).type == s.label) add(i + 1, c);
        }
        break;
      case NormalStep::Kind::kWildcard:
        for (NodeId c : dag.children(x)) add(i + 1, c);
        break;
      case NormalStep::Kind::kDescOrSelf:
        add(i + 1, x);
        for (NodeId d : reach.Descendants(x)) add(i + 1, d);
        break;
    }
  }

  // (4) Re-derive the full result (pruning, side effects, Ep(r)) from the
  // patched trace.
  XPathEvaluator ev(&dag, &reach);
  entry->result = ev.FinishFromTrace(entry->np, entry->reached);
  return true;
}

}  // namespace xvu
