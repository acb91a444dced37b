#ifndef XVU_DAG_TOPO_ORDER_H_
#define XVU_DAG_TOPO_ORDER_H_

#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"

namespace xvu {

/// The topological order L of Section 3.1: a list of all DAG nodes such
/// that u precedes v only if u is NOT an ancestor of v — i.e. descendants
/// come first, ancestors later (the direction required by Algorithm
/// Reach's backward scan).
class TopoOrder {
 public:
  TopoOrder() = default;

  /// Kahn's algorithm in O(|V|). Fails if the graph is cyclic.
  static Result<TopoOrder> Compute(const DagView& dag);

  const std::vector<NodeId>& order() const { return order_; }
  size_t size() const { return order_.size(); }

  static constexpr size_t npos = static_cast<size_t>(-1);
  /// Position of `v` in L, or npos.
  size_t PositionOf(NodeId v) const;
  bool Contains(NodeId v) const { return PositionOf(v) != npos; }

  /// Verifies validity against `dag`: for every edge (p, c), c precedes p.
  Status Check(const DagView& dag) const;

 private:
  std::vector<NodeId> order_;
  /// pos_[v] = index of v in order_, npos if absent. Dense by NodeId.
  std::vector<size_t> pos_;
};

}  // namespace xvu

#endif  // XVU_DAG_TOPO_ORDER_H_
