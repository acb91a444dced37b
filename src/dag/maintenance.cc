#include "src/dag/maintenance.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <unordered_set>

namespace xvu {

std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots) {
  std::vector<uint8_t> seen(dag.capacity(), 0);
  std::vector<NodeId> out, stack(roots.begin(), roots.end());
  out.reserve(roots.size() * 2);
  stack.reserve(roots.size() * 2);
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    if (seen[v]) continue;
    seen[v] = 1;
    out.push_back(v);
    for (NodeId c : dag.children(v)) stack.push_back(c);
  }
  return out;
}

const Reachability::Row& StagedAncestorRows::Get(NodeId v) const {
  auto it = at_.find(v);
  return it != at_.end() ? rows_[it->second].second : m_->Ancestors(v);
}

Reachability::Row StagedAncestorRows::Union(
    const std::vector<NodeId>& parents) {
  auto get = [this](NodeId p) -> const Reachability::Row& { return Get(p); };
  return Reachability::UnionOverParents(parents, get, &scratch_);
}

void StagedAncestorRows::Stage(NodeId v, Reachability::Row row) {
  at_.emplace(v, rows_.size());
  rows_.emplace_back(v, std::move(row));
}

void StagedAncestorRows::ApplyTo(Reachability* m, Reachability::Pairs* added,
                                 Reachability::Pairs* removed) {
  m->SetAncestorRows(std::move(rows_), added, removed);
  rows_.clear();
  at_.clear();
}

namespace {

/// Descendants-first topological order of the subgraph induced by `nodes`.
std::vector<NodeId> InducedTopo(const DagView& dag,
                                const std::vector<NodeId>& nodes) {
  std::unordered_set<NodeId> in(nodes.begin(), nodes.end());
  std::unordered_map<NodeId, size_t> outdeg;
  for (NodeId v : nodes) {
    size_t d = 0;
    for (NodeId c : dag.children(v)) {
      if (in.count(c) > 0) ++d;
    }
    outdeg[v] = d;
  }
  std::deque<NodeId> q;
  for (NodeId v : nodes) {
    if (outdeg[v] == 0) q.push_back(v);
  }
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop_front();
    order.push_back(v);
    for (NodeId p : dag.parents(v)) {
      auto it = outdeg.find(p);
      if (it != outdeg.end() && --it->second == 0) q.push_back(p);
    }
  }
  return order;
}

}  // namespace

Status MaintainInsert(const DagView& dag, NodeId subtree_root,
                      const std::vector<NodeId>& new_nodes,
                      const std::vector<NodeId>& targets, Reachability* m,
                      TopoOrder* l, MaintenanceDelta* delta) {
  // D = desc-or-self(subtree_root): the subtree's node set, and the
  // induced subgraph is closed under paths between its members.
  std::vector<NodeId> subtree = CollectDescOrSelf(dag, {subtree_root});
  std::vector<NodeId> ltree = InducedTopo(dag, subtree);
  if (ltree.size() != subtree.size()) {
    return Status::Internal("inserted subtree is cyclic");
  }
  std::unordered_set<NodeId> in_subtree(subtree.begin(), subtree.end());

  // (1) ∆M, part one: reachability closure inside the subtree (Algorithm
  // Reach restricted to the induced subgraph). Ancestors first, each
  // node's row grows by {p} ∪ row(p) over its in-subtree parents, read
  // from the rows grown so far; rows that gain nothing (pairs among
  // pre-existing shared nodes) are skipped. All grown rows are applied in
  // one bulk update.
  StagedAncestorRows grown(m);
  std::vector<NodeId> in_parents;
  for (size_t k = ltree.size(); k > 0; --k) {
    NodeId d = ltree[k - 1];
    in_parents.clear();
    for (NodeId p : dag.parents(d)) {
      if (in_subtree.count(p) > 0) in_parents.push_back(p);
    }
    if (in_parents.empty()) continue;
    Reachability::Row via = grown.Union(in_parents);
    const Reachability::Row& old = m->Ancestors(d);
    if (std::includes(old.begin(), old.end(), via.begin(), via.end())) {
      continue;
    }
    Reachability::Row row;
    row.reserve(old.size() + via.size());
    std::set_union(old.begin(), old.end(), via.begin(), via.end(),
                   std::back_inserter(row));
    grown.Stage(d, std::move(row));
  }
  grown.ApplyTo(m, &delta->m_inserted, nullptr);

  // (2) ∆M, part two (Fig.7 lines 4-5): cross pairs — every ancestor-or-
  // self of a target reaches every subtree node through the connect edge.
  // One product insert: a merge per touched row, never a per-pair insert
  // into a long descendant row.
  Reachability::Row anc_targets(targets.begin(), targets.end());
  for (NodeId u : targets) {
    const Reachability::Row& au = m->Ancestors(u);
    anc_targets.insert(anc_targets.end(), au.begin(), au.end());
  }
  std::sort(anc_targets.begin(), anc_targets.end());
  anc_targets.erase(std::unique(anc_targets.begin(), anc_targets.end()),
                    anc_targets.end());
  Reachability::Row desc_root(subtree.begin(), subtree.end());
  std::sort(desc_root.begin(), desc_root.end());
  m->InsertProduct(anc_targets, desc_root, &delta->m_inserted);

  // (3) L: merge the new nodes children-first, each immediately after its
  // rightmost (max-position) child; a parentless/childless new node goes
  // to the front. This realizes the LA/L alignment-and-merge of Fig.7
  // lines 6-14 for the case where only new nodes need placing.
  std::unordered_set<NodeId> fresh(new_nodes.begin(), new_nodes.end());
  for (NodeId v : ltree) {
    if (fresh.count(v) == 0) {
      continue;  // existing shared node: already placed consistently
    }
    size_t at = TopoOrder::npos;
    for (NodeId c : dag.children(v)) {
      size_t pc = l->PositionOf(c);
      if (pc == TopoOrder::npos) {
        return Status::Internal("child placed after parent during L merge");
      }
      if (at == TopoOrder::npos || pc > at) at = pc;
    }
    l->InsertAfter(v, at);
  }

  // (4) Fig.7 lines 12-13: if the subtree root pre-existed (or after the
  // merge), targets that precede it must be re-aligned: with the new edge
  // (u, root) the root's cone must move before u.
  for (NodeId u : targets) {
    size_t pu = l->PositionOf(u);
    size_t pr = l->PositionOf(subtree_root);
    if (pu != TopoOrder::npos && pr != TopoOrder::npos && pu < pr) {
      l->Swap(u, subtree_root, *m);
    }
  }
  return Status::OK();
}

Status MaintainDelete(DagView* dag, const std::vector<NodeId>& targets,
                      Reachability* m, TopoOrder* l,
                      MaintenanceDelta* delta) {
  // L_R: desc-or-self(targets) in the PRE-deletion view, taken from the
  // (stale) matrix — the DAG has already lost the deleted edges, so a DFS
  // there would miss newly orphaned regions. Sorted by L and scanned
  // backwards so every node is processed after all of its ancestors.
  std::vector<NodeId> lr(targets.begin(), targets.end());
  for (NodeId v : targets) {
    const Reachability::Row& dv = m->Descendants(v);
    lr.insert(lr.end(), dv.begin(), dv.end());
  }
  std::sort(lr.begin(), lr.end());
  lr.erase(std::unique(lr.begin(), lr.end()), lr.end());
  std::sort(lr.begin(), lr.end(), [&](NodeId a, NodeId b) {
    return l->PositionOf(a) < l->PositionOf(b);
  });

  std::unordered_map<NodeId, bool> keep;
  for (NodeId d : lr) keep[d] = true;
  auto is_kept = [&](NodeId v) {
    auto it = keep.find(v);
    return it == keep.end() || it->second;
  };

  // Each affected node's ancestor row is recomputed from its surviving
  // parents' new rows, then all replacements are applied in one bulk
  // update.
  StagedAncestorRows rows(m);
  std::vector<NodeId> kept_parents;
  for (size_t k = lr.size(); k > 0; --k) {
    NodeId d = lr[k - 1];
    if (d == dag->root()) continue;  // the root is never collected
    // P_d: surviving parents (deleted edges are already gone from dag).
    kept_parents.clear();
    for (NodeId a : dag->parents(d)) {
      if (is_kept(a)) kept_parents.push_back(a);
    }
    rows.Stage(d, rows.Union(kept_parents));
    if (kept_parents.empty()) {
      keep[d] = false;
      l->Remove(d);
      for (NodeId c : dag->children(d)) delta->orphan_edges.emplace_back(d, c);
    }
  }
  rows.ApplyTo(m, nullptr, &delta->m_deleted);

  // Garbage collection: drop the orphan edges, then the dead nodes.
  for (const auto& [u, v] : delta->orphan_edges) {
    XVU_RETURN_NOT_OK(dag->RemoveEdge(u, v));
  }
  for (NodeId d : lr) {
    if (!keep[d]) {
      XVU_RETURN_NOT_OK(dag->RemoveNode(d));
      delta->removed_nodes.push_back(d);
    }
  }
  return Status::OK();
}

Status MaintainBatch(DagView* dag, Reachability* m, TopoOrder* l,
                     MaintenanceDelta* delta) {
  // (1) Garbage collection: a node survives iff it is still reachable from
  // the root. (Equivalent to the cascading no-live-parent criterion of
  // Fig.8 — in a rooted DAG the two fixpoints coincide — but computed in
  // one DFS instead of per-deletion cascades.)
  std::vector<NodeId> reachable =
      dag->root() == kInvalidNode
          ? std::vector<NodeId>{}
          : CollectDescOrSelf(*dag, {dag->root()});
  std::vector<uint8_t> live(dag->capacity(), 0);
  for (NodeId v : reachable) live[v] = 1;
  std::vector<NodeId> doomed;
  for (NodeId v : dag->LiveNodes()) {
    if (!live[v]) doomed.push_back(v);
  }
  // Every incoming edge of a doomed node originates at a doomed node (a
  // live parent would make it reachable), so removing all doomed nodes'
  // outgoing edges clears every incident edge.
  for (NodeId v : doomed) {
    std::vector<NodeId> children = dag->children(v);
    for (NodeId c : children) {
      delta->orphan_edges.emplace_back(v, c);
      XVU_RETURN_NOT_OK(dag->RemoveEdge(v, c));
    }
  }
  for (NodeId v : doomed) {
    XVU_RETURN_NOT_OK(dag->RemoveNode(v));
    delta->removed_nodes.push_back(v);
  }

  // (2) One rebuild of L and M amortized over the whole batch.
  XVU_ASSIGN_OR_RETURN(*l, TopoOrder::Compute(*dag));
  *m = Reachability::Compute(*dag, *l);
  return Status::OK();
}

}  // namespace xvu
