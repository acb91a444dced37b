#include "src/dag/maintenance_engine.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/failpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xvu {

const char* MaintenanceStrategyName(MaintenanceStrategy s) {
  switch (s) {
    case MaintenanceStrategy::kAuto:
      return "auto";
    case MaintenanceStrategy::kIncrementalMerge:
      return "incremental-merge";
    case MaintenanceStrategy::kFullRebuild:
      return "full-rebuild";
  }
  return "?";
}

Status MaintenanceEngine::Rebuild(const DagView& dag) {
  XVU_ASSIGN_OR_RETURN(topo_, TopoOrder::Compute(dag));
  reach_ = Reachability::Compute(dag, topo_);
  maintained_version_ = dag.version();
  return Status::OK();
}

namespace {

/// Replacement ancestor rows staged for one Reachability::SetAncestorRows
/// call by a pass that recomputes rows ancestors first: Get() returns a
/// node's staged row if it has one, else M's current row, so each row is
/// computed from its parents' new rows while M stays untouched until
/// ApplyTo.
class StagedAncestorRows {
 public:
  explicit StagedAncestorRows(const Reachability* m) : m_(m) {}

  const Reachability::Row& Get(NodeId v) const {
    auto it = at_.find(v);
    return it != at_.end() ? rows_[it->second].second : m_->Ancestors(v);
  }

  /// The Fig.4 recurrence for one node over `parents`, read through Get().
  Reachability::Row Union(const std::vector<NodeId>& parents) {
    auto get = [this](NodeId p) -> const Reachability::Row& { return Get(p); };
    return Reachability::UnionOverParents(parents, get, &scratch_);
  }

  /// Stages `row` as v's replacement; v must not be staged yet.
  void Stage(NodeId v, Reachability::Row row) {
    at_.emplace(v, rows_.size());
    rows_.emplace_back(v, std::move(row));
  }

  /// Applies every staged row to `m` in one bulk update.
  void ApplyTo(Reachability* m, Reachability::Pairs* added,
               Reachability::Pairs* removed) {
    m->SetAncestorRows(std::move(rows_), added, removed);
    rows_.clear();
    at_.clear();
  }

 private:
  const Reachability* m_;
  std::vector<std::pair<NodeId, Reachability::Row>> rows_;
  std::unordered_map<NodeId, size_t> at_;
  Reachability::Row scratch_;
};

/// Ancestors-first topological order of the subgraph induced by `nodes`:
/// every in-set parent precedes its in-set children, so the Fig.4
/// recurrence (a node's ancestor set from its parents') can be replayed
/// over the set with all out-of-set parents already final.
Result<std::vector<NodeId>> InducedTopoAncestorsFirst(
    const DagView& dag, const std::vector<NodeId>& nodes) {
  std::unordered_set<NodeId> in(nodes.begin(), nodes.end());
  std::unordered_map<NodeId, size_t> indeg;
  indeg.reserve(nodes.size());
  for (NodeId v : nodes) {
    size_t d = 0;
    for (NodeId p : dag.parents(v)) {
      if (in.count(p) > 0) ++d;
    }
    indeg[v] = d;
  }
  std::deque<NodeId> q;
  for (NodeId v : nodes) {
    if (indeg[v] == 0) q.push_back(v);
  }
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop_front();
    order.push_back(v);
    for (NodeId c : dag.children(v)) {
      auto it = indeg.find(c);
      if (it != indeg.end() && --it->second == 0) q.push_back(c);
    }
  }
  if (order.size() != nodes.size()) {
    return Status::Internal("affected region contains a cycle");
  }
  return order;
}

}  // namespace

Status MaintenanceEngine::IncrementalMerge(
    DagView* dag, const std::vector<DagDelta>& journal,
    MaintenanceDelta* delta) {
  if (dag->root() == kInvalidNode) {
    return Status::Internal("incremental merge on a rootless DAG");
  }

  // (1) Consolidate the window into its net structural effect. M and L are
  // functions of the final graph, so an edge added and removed inside the
  // window (or vice versa) cancels outright; same for nodes (a tombstoned
  // id is never reused, so kNodeAdded ids are always fresh).
  std::set<std::pair<NodeId, NodeId>> net_added, net_removed;
  std::unordered_set<NodeId> fresh_nodes, stale_nodes;
  for (const DagDelta& d : journal) {
    switch (d.kind) {
      case DagDelta::Kind::kNodeAdded:
        fresh_nodes.insert(d.node);
        break;
      case DagDelta::Kind::kNodeRemoved:
        // A node created and tombstoned inside the window never entered
        // M or L: nothing to clear.
        if (fresh_nodes.erase(d.node) == 0) stale_nodes.insert(d.node);
        break;
      case DagDelta::Kind::kEdgeAdded: {
        auto e = std::make_pair(d.parent, d.child);
        if (net_removed.erase(e) == 0) net_added.insert(e);
        break;
      }
      case DagDelta::Kind::kEdgeRemoved: {
        auto e = std::make_pair(d.parent, d.child);
        if (net_added.erase(e) == 0) net_removed.insert(e);
        break;
      }
      case DagDelta::Kind::kRootChanged:
        // Only the initial publish moves the root; Rebuild() covers it.
        return Status::Internal("root change is not incrementally mergeable");
    }
  }

  // (2) Garbage collection over the window's candidates only: its fresh
  // nodes plus the pre-window desc-or-self of each net-removed edge's
  // child, read from the stale M. Every other live node keeps its
  // pre-window root path — an edge of that path cannot be net-removed, or
  // the node would be a candidate — so a candidate lives iff a live parent
  // that is not a candidate reaches it through other candidates. This is
  // the full path's criterion (reachable from the root) without its
  // O(|V|) sweep. The root is never a candidate. The removals are applied
  // through the DagView (journaling them for any other journal consumer)
  // and folded into the net effect.
  std::unordered_set<NodeId> candidates;
  auto add_candidate = [&](NodeId v) {
    if (v != dag->root() && dag->alive(v)) candidates.insert(v);
  };
  for (NodeId v : fresh_nodes) add_candidate(v);
  for (const auto& e : net_removed) {
    add_candidate(e.second);
    for (NodeId d : reach_.Descendants(e.second)) add_candidate(d);
  }
  std::vector<NodeId> stack;
  std::unordered_set<NodeId> lives;
  for (NodeId v : candidates) {
    for (NodeId p : dag->parents(v)) {
      if (candidates.count(p) == 0) {
        lives.insert(v);
        stack.push_back(v);
        break;
      }
    }
  }
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId c : dag->children(v)) {
      if (candidates.count(c) > 0 && lives.insert(c).second) {
        stack.push_back(c);
      }
    }
  }
  std::vector<NodeId> doomed;
  for (NodeId v : candidates) {
    if (lives.count(v) == 0) doomed.push_back(v);
  }
  // Ascending ids, as the full path's sweep collects them, so both leave
  // the same DAG layout and reclaim rows in the same order.
  std::sort(doomed.begin(), doomed.end());
  for (NodeId v : doomed) {
    std::vector<NodeId> children = dag->children(v);
    for (NodeId c : children) {
      // Injection point for a ∆V-journal append failure mid-GC: the
      // merge aborts with the removals so far already journaled and in
      // `delta`; MaintainBatch absorbs it by falling back to a full
      // rebuild (the GC that happened is kept, it is real).
      XVU_FAIL_POINT(failpoints::kJournalAppend);
      delta->orphan_edges.emplace_back(v, c);
      XVU_RETURN_NOT_OK(dag->RemoveEdge(v, c));
      auto e = std::make_pair(v, c);
      if (net_added.erase(e) == 0) net_removed.insert(e);
    }
  }
  for (NodeId v : doomed) {
    XVU_RETURN_NOT_OK(dag->RemoveNode(v));
    delta->removed_nodes.push_back(v);
    if (fresh_nodes.erase(v) == 0) stale_nodes.insert(v);
  }

  // Injection point for a merge failure after GC but before the ∆M
  // replay — the absorbed-degradation scenario: MaintainBatch clears the
  // half-emitted ∆M and rebuilds wholesale; the batch still succeeds.
  XVU_FAIL_POINT(failpoints::kMaintainMerge);

  // (3) Affected region: a live node's ancestor set can have changed only
  // if it is a new-DAG descendant-or-self of a changed edge's child
  // endpoint or of a new node — any gained ancestor arrives through an
  // added edge whose child-side suffix path survives, and any lost
  // ancestor left through a removed edge whose child-side suffix path
  // survives (a suffix edge that is itself gone re-seeds at its own child).
  std::vector<NodeId> seeds;
  std::unordered_set<NodeId> seed_set;
  auto add_seed = [&](NodeId v) {
    if (dag->alive(v) && seed_set.insert(v).second) seeds.push_back(v);
  };
  for (const auto& e : net_added) add_seed(e.second);
  for (const auto& e : net_removed) add_seed(e.second);
  for (NodeId v : fresh_nodes) add_seed(v);
  std::vector<NodeId> affected = CollectDescOrSelf(*dag, seeds);
  XVU_ASSIGN_OR_RETURN(std::vector<NodeId> order,
                       InducedTopoAncestorsFirst(*dag, affected));

  // (4) Replay the Fig.4 recurrence over the affected region only,
  // ancestors first: each node's fresh row is built from its parents' new
  // rows, and rows that did not change are dropped. All replacements are
  // then applied in one bulk update, whose diff against the stale rows
  // emits the true ∆M.
  StagedAncestorRows rows(&reach_);
  for (NodeId x : order) {
    Reachability::Row fresh = rows.Union(dag->parents(x));
    if (fresh != reach_.Ancestors(x)) rows.Stage(x, std::move(fresh));
  }
  rows.ApplyTo(&reach_, &delta->m_inserted, &delta->m_deleted);

  // (5) Tombstoned nodes are not in the affected region (they are
  // unreachable); clear their residual pairs explicitly. Most are already
  // gone via the symmetric bookkeeping of step (4).
  Reachability::Pairs residual;
  for (NodeId v : stale_nodes) {
    for (NodeId a : reach_.Ancestors(v)) residual.emplace_back(a, v);
    for (NodeId d : reach_.Descendants(v)) residual.emplace_back(v, d);
  }
  reach_.ErasePairs(residual, &delta->m_deleted);

  // (6) L: one linear Kahn pass over the cleaned DAG. This is O(|V|+|E|)
  // — negligible next to the superlinear M work the merge avoids — and
  // makes the incremental path's L bit-identical to the full rebuild's.
  XVU_ASSIGN_OR_RETURN(topo_, TopoOrder::Compute(*dag));
  return Status::OK();
}

Status MaintenanceEngine::MaintainBatch(DagView* dag,
                                        const BatchOptions& options,
                                        BatchReport* report) {
  obs::TraceSpan span("maintain.batch");
  XVU_OBS_LATENCY(lat, "xvu.maintain.batch.ns");
  Status st = MaintainBatchImpl(dag, options, report);
  if (st.ok()) {
    span.StrArg("strategy", MaintenanceStrategyName(report->used));
    span.Arg("journal_entries", report->journal_entries_replayed);
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Instance()
          .GetCounter(std::string("xvu.maintain.strategy.") +
                      MaintenanceStrategyName(report->used))
          ->Add(1);
      XVU_OBS_RECORD("xvu.maintain.journal_window", "entries",
                     report->journal_entries_replayed);
    }
  }
  return st;
}

Status MaintenanceEngine::MaintainBatchImpl(DagView* dag,
                                            const BatchOptions& options,
                                            BatchReport* report) {
  const uint64_t since = maintained_version_;
  const bool covered = dag->JournalCovers(since);
  const size_t pending = covered ? dag->JournalCountSince(since) : 0;

  MaintenanceStrategy chosen = options.strategy;
  if (chosen == MaintenanceStrategy::kAuto) {
    size_t budget = std::max(
        options.incremental_journal_floor,
        static_cast<size_t>(options.incremental_journal_ratio *
                            static_cast<double>(dag->num_nodes())));
    chosen = covered && pending <= budget
                 ? MaintenanceStrategy::kIncrementalMerge
                 : MaintenanceStrategy::kFullRebuild;
  }
  if (chosen == MaintenanceStrategy::kIncrementalMerge && !covered) {
    // Forced incremental but the journal window was evicted: replaying
    // would miss mutations, so degrade (report->used tells the truth).
    chosen = MaintenanceStrategy::kFullRebuild;
  }

  if (chosen == MaintenanceStrategy::kIncrementalMerge) {
    if (pending == 0) {
      // Nothing happened since the last maintenance pass.
      report->used = MaintenanceStrategy::kIncrementalMerge;
      report->journal_entries_replayed = 0;
      return Status::OK();
    }
    std::vector<DagDelta> journal = dag->JournalSince(since);
    report->journal_entries_replayed = journal.size();
    Status st = IncrementalMerge(dag, journal, &report->delta);
    if (st.ok()) {
      report->used = MaintenanceStrategy::kIncrementalMerge;
      maintained_version_ = dag->version();
      return Status::OK();
    }
    // The merge may have left M half-updated; the wholesale rebuild below
    // replaces it entirely. GC already performed (orphan_edges /
    // removed_nodes) stays in the report — those removals really happened
    // and the caller must still reclaim their relational coding. The
    // half-emitted ∆M is meaningless after a rebuild, so drop it.
    report->delta.m_inserted.clear();
    report->delta.m_deleted.clear();
  }

  report->used = MaintenanceStrategy::kFullRebuild;
  XVU_RETURN_NOT_OK(FullRebuild(dag, &report->delta));
  maintained_version_ = dag->version();
  return Status::OK();
}

Status MaintenanceEngine::FullRebuild(DagView* dag, MaintenanceDelta* delta) {
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

  // (2) One rebuild of L and M amortized over the whole window.
  XVU_ASSIGN_OR_RETURN(topo_, TopoOrder::Compute(*dag));
  reach_ = Reachability::Compute(*dag, topo_);
  return Status::OK();
}

}  // namespace xvu
