#ifndef XVU_DAG_MAINTENANCE_H_
#define XVU_DAG_MAINTENANCE_H_

#include <utility>
#include <vector>

#include "src/dag/dag_view.h"

namespace xvu {

/// Changes produced by one MaintenanceEngine::MaintainBatch pass (the
/// ∆(M,L) maintenance of Section 3.4, Fig.7/8, over a ∆V journal window).
struct MaintenanceDelta {
  /// Pairs added to the reachability matrix (∆M).
  std::vector<std::pair<NodeId, NodeId>> m_inserted;
  /// Pairs removed from the reachability matrix (∆M).
  std::vector<std::pair<NodeId, NodeId>> m_deleted;
  /// ∆'V of Fig.8: outgoing edges of garbage-collected nodes, removed from
  /// the DAG and handed to the caller so the corresponding witness rows can
  /// be reclaimed from the relational coding.
  std::vector<std::pair<NodeId, NodeId>> orphan_edges;
  /// Nodes that became unreachable and were tombstoned (their gen_A rows
  /// are reclaimed by the background garbage collector of Section 2.3).
  std::vector<NodeId> removed_nodes;
};

/// desc-or-self of `roots` by DFS over the current DAG.
std::vector<NodeId> CollectDescOrSelf(const DagView& dag,
                                      const std::vector<NodeId>& roots);

}  // namespace xvu

#endif  // XVU_DAG_MAINTENANCE_H_
