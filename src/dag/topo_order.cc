#include "src/dag/topo_order.h"

#include <deque>

namespace xvu {

Result<TopoOrder> TopoOrder::Compute(const DagView& dag) {
  TopoOrder t;
  std::vector<NodeId> live = dag.LiveNodes();
  std::vector<size_t> outdeg(dag.capacity(), 0);
  std::deque<NodeId> q;
  for (NodeId v : live) {
    outdeg[v] = dag.children(v).size();
    if (outdeg[v] == 0) q.push_back(v);
  }
  t.order_.reserve(live.size());
  t.pos_.assign(dag.capacity(), npos);
  // Kahn over reversed edges: emit a node once all of its children are
  // emitted, yielding a descendants-first order (u precedes v only if u is
  // not an ancestor of v, as Section 3.1 requires).
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop_front();
    t.pos_[v] = t.order_.size();
    t.order_.push_back(v);
    for (NodeId p : dag.parents(v)) {
      if (--outdeg[p] == 0) q.push_back(p);
    }
  }
  if (t.order_.size() != live.size()) {
    return Status::Rejected("DAG contains a cycle; no topological order");
  }
  return t;
}

size_t TopoOrder::PositionOf(NodeId v) const {
  return v < pos_.size() ? pos_[v] : npos;
}

Status TopoOrder::Check(const DagView& dag) const {
  if (order_.size() != dag.num_nodes()) {
    return Status::Internal("topological order size " +
                            std::to_string(order_.size()) +
                            " != live nodes " +
                            std::to_string(dag.num_nodes()));
  }
  Status bad = Status::OK();
  dag.ForEachEdge([&](NodeId p, NodeId c) {
    size_t pp = PositionOf(p), pc = PositionOf(c);
    if (pp == npos || pc == npos || pc >= pp) {
      bad = Status::Internal("edge (" + std::to_string(p) + "," +
                             std::to_string(c) +
                             ") violates the topological order");
    }
  });
  return bad;
}

}  // namespace xvu
