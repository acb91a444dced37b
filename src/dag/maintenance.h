#ifndef XVU_DAG_MAINTENANCE_H_
#define XVU_DAG_MAINTENANCE_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// Changes produced by the incremental maintenance algorithms of
/// Section 3.4.
struct MaintenanceDelta {
  /// Pairs added to the reachability matrix (∆M of Fig.7).
  std::vector<std::pair<NodeId, NodeId>> m_inserted;
  /// Pairs removed from the reachability matrix (∆M of Fig.8).
  std::vector<std::pair<NodeId, NodeId>> m_deleted;
  /// ∆'V of Fig.8: outgoing edges of garbage-collected nodes, removed from
  /// the DAG and handed to the caller so the corresponding witness rows can
  /// be reclaimed from the relational coding.
  std::vector<std::pair<NodeId, NodeId>> orphan_edges;
  /// Nodes that became unreachable and were tombstoned (their gen_A rows
  /// are reclaimed by the background garbage collector of Section 2.3).
  std::vector<NodeId> removed_nodes;
};

/// Replacement ancestor rows staged for one Reachability::SetAncestorRows
/// call by a pass that recomputes rows ancestors first: Get() returns a
/// node's staged row if it has one, else M's current row, so each row is
/// computed from its parents' new rows while M stays untouched until
/// ApplyTo.
class StagedAncestorRows {
 public:
  explicit StagedAncestorRows(const Reachability* m) : m_(m) {}

  const Reachability::Row& Get(NodeId v) const;
  /// The Fig.4 recurrence for one node over `parents`, read through Get().
  Reachability::Row Union(const std::vector<NodeId>& parents);
  /// Stages `row` as v's replacement; v must not be staged yet.
  void Stage(NodeId v, Reachability::Row row);
  /// Applies every staged row to `m` in one bulk update and clears the
  /// stage.
  void ApplyTo(Reachability* m, Reachability::Pairs* added,
               Reachability::Pairs* removed);

 private:
  const Reachability* m_;
  std::vector<std::pair<NodeId, Reachability::Row>> rows_;
  std::unordered_map<NodeId, size_t> at_;
  Reachability::Row scratch_;
};

/// Algorithm ∆(M,L)insert (Fig.7).
///
/// Preconditions: `dag` already contains the published subtree ST(A, t)
/// (root `subtree_root`, newly created nodes `new_nodes`) and the connect
/// edges (u, subtree_root) for every u in `targets` (= r[[p]]).
///
/// Updates `m` with (a) the reachability closure of the subtree's induced
/// subgraph and (b) the cross pairs anc-or-self(targets) × desc-or-self
/// (subtree_root); updates `l` by merging the new nodes in children-first
/// order and swap-aligning the targets with the subtree root.
Status MaintainInsert(const DagView& dag, NodeId subtree_root,
                      const std::vector<NodeId>& new_nodes,
                      const std::vector<NodeId>& targets, Reachability* m,
                      TopoOrder* l, MaintenanceDelta* delta);

/// Algorithm ∆(M,L)delete (Fig.8).
///
/// Preconditions: the edges E_p(r) selected by Xdelete have already been
/// removed from `dag`; `m` is still the PRE-deletion matrix (it is used to
/// enumerate the affected descendants L_R).
///
/// Recomputes ancestor sets for all affected nodes in a backward scan of
/// L_R, emits ∆M deletions, garbage-collects nodes left without live
/// parents (cascading), removes their outgoing edges from `dag` (∆'V) and
/// drops them from `l`.
Status MaintainDelete(DagView* dag, const std::vector<NodeId>& targets,
                      Reachability* m, TopoOrder* l, MaintenanceDelta* delta);

/// Batch-aware full-rebuild maintenance: one pass for a whole UpdateBatch
/// (the deferred, backgroundable phase of Fig.11c, amortized over N ops).
/// This is the kFullRebuild primitive of MaintenanceEngine
/// (maintenance_engine.h), which owns M and L and chooses per batch
/// between this wholesale path and the incremental ∆V-journal merge.
///
/// Precondition: all of the batch's DAG mutations (edge removals, subtree
/// publications, connect edges) are already applied to `dag`; `m` and `l`
/// are the stale pre-batch structures.
///
/// Garbage-collects every node no longer reachable from the root — their
/// removed outgoing edges are reported as `orphan_edges` (∆'V, so the
/// caller can reclaim witness rows) and the nodes as `removed_nodes` —
/// then rebuilds L (Kahn) and M (Algorithm Reach, Fig.4) in one O(n·|V|)
/// pass over the cleaned DAG. `m_inserted`/`m_deleted` are left empty:
/// the rebuild replaces M wholesale instead of emitting per-pair deltas.
Status MaintainBatch(DagView* dag, Reachability* m, TopoOrder* l,
                     MaintenanceDelta* delta);

/// desc-or-self of `roots` by DFS over the current DAG.
std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots);

}  // namespace xvu

#endif  // XVU_DAG_MAINTENANCE_H_
