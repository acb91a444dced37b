#include "src/core/translate.h"

#include <functional>

namespace xvu {

Result<Tuple> DeriveEdgeRowOutputs(const EdgeViewInfo& info,
                                   const Database& base,
                                   const Tuple& parent_attr,
                                   const Tuple& child_attr) {
  const SpjQuery& q = info.rule;
  // Union-find over (occurrence, column) cells with constant binding —
  // a scaled-down version of the Appendix A propagation.
  std::vector<std::vector<size_t>> cells(q.tables().size());
  std::vector<size_t> parent(0);
  std::vector<Value> bound;
  auto fresh = [&]() {
    parent.push_back(parent.size());
    bound.push_back(Value::Null());
    return parent.size() - 1;
  };
  std::function<size_t(size_t)> find = [&](size_t c) {
    while (parent[c] != c) {
      parent[c] = parent[parent[c]];
      c = parent[c];
    }
    return c;
  };
  auto bind = [&](size_t c, const Value& v) -> Status {
    c = find(c);
    if (!bound[c].is_null() && bound[c] != v) {
      return Status::Rejected("edge-row derivation conflict: " +
                              bound[c].ToString() + " vs " + v.ToString());
    }
    bound[c] = v;
    return Status::OK();
  };
  auto unite = [&](size_t a, size_t b) -> Status {
    a = find(a);
    b = find(b);
    if (a == b) return Status::OK();
    if (!bound[a].is_null() && !bound[b].is_null() && bound[a] != bound[b]) {
      return Status::Rejected("edge-row derivation conflict");
    }
    if (bound[a].is_null()) std::swap(a, b);
    parent[b] = a;
    return Status::OK();
  };

  for (size_t i = 0; i < q.tables().size(); ++i) {
    const Table* bt = base.GetTable(q.tables()[i].table);
    if (bt == nullptr) return Status::NotFound(q.tables()[i].table);
    for (size_t c = 0; c < bt->schema().arity(); ++c) {
      cells[i].push_back(fresh());
    }
  }
  for (const SpjCondition& c : q.conditions()) {
    size_t lc = cells[c.lhs.table_pos][c.lhs.col_idx];
    switch (c.kind) {
      case SpjCondition::Kind::kColConst:
        XVU_RETURN_NOT_OK(bind(lc, c.constant));
        break;
      case SpjCondition::Kind::kColParam:
        XVU_RETURN_NOT_OK(bind(lc, parent_attr[c.param_idx]));
        break;
      case SpjCondition::Kind::kColCol:
        XVU_RETURN_NOT_OK(unite(lc, cells[c.rhs.table_pos][c.rhs.col_idx]));
        break;
      case SpjCondition::Kind::kColColNe:
        break;  // derives nothing; rejected in view rules at registration
    }
  }
  // The leading outputs are the child's attribute.
  for (size_t j = 0; j < info.attr_arity; ++j) {
    const SpjColRef& ref = q.outputs()[j].ref;
    XVU_RETURN_NOT_OK(
        bind(cells[ref.table_pos][ref.col_idx], child_attr[j]));
  }
  Tuple out;
  out.reserve(q.outputs().size());
  for (size_t j = 0; j < q.outputs().size(); ++j) {
    const SpjColRef& ref = q.outputs()[j].ref;
    size_t cls = find(cells[ref.table_pos][ref.col_idx]);
    if (bound[cls].is_null()) {
      return Status::Rejected(
          "projected column " + q.outputs()[j].name +
          " is not determined by ($A, $B); the insertion cannot specify "
          "the required source keys");
    }
    out.push_back(bound[cls]);
  }
  return out;
}

Result<std::vector<ViewRowOp>> XInsertConnectRows(
    const ViewStore& store, const Database& base, const DagView& dag,
    const std::vector<NodeId>& targets, const std::string& elem_type,
    const Tuple& attr) {
  std::vector<ViewRowOp> out;
  out.reserve(targets.size());
  for (NodeId u : targets) {
    const std::string& ptype = dag.node(u).type;
    const EdgeViewInfo* info = store.FindEdgeViewByTypes(ptype, elem_type);
    if (info == nullptr) {
      return Status::Rejected("no edge relation " + ptype + " -> " +
                              elem_type +
                              "; the DTD does not allow this insertion");
    }
    XVU_ASSIGN_OR_RETURN(
        Tuple outputs,
        DeriveEdgeRowOutputs(*info, base, dag.node(u).attr, attr));
    ViewRowOp op;
    op.view_name = info->name;
    // child_id = -1 placeholder: assigned after ST(A, t) is published.
    op.row = ViewStore::MakeEdgeRow(static_cast<int64_t>(u), -1, outputs);
    out.push_back(std::move(op));
  }
  return out;
}

Result<std::vector<ViewRowOp>> XDeleteRows(
    const ViewStore& store, const DagView& dag,
    const std::vector<std::pair<NodeId, NodeId>>& parent_edges) {
  std::vector<ViewRowOp> out;
  for (const auto& [u, v] : parent_edges) {
    const std::string& ptype = dag.node(u).type;
    const std::string& ctype = dag.node(v).type;
    const EdgeViewInfo* info = store.FindEdgeViewByTypes(ptype, ctype);
    if (info == nullptr) {
      return Status::Rejected("no edge relation " + ptype + " -> " + ctype +
                              "; the DTD does not allow this deletion");
    }
    std::vector<Tuple> rows = store.EdgeRowsFor(
        info->name, static_cast<int64_t>(u), static_cast<int64_t>(v));
    if (rows.empty()) {
      return Status::Internal("edge (" + std::to_string(u) + "," +
                              std::to_string(v) +
                              ") has no witness rows in " + info->name);
    }
    for (Tuple& r : rows) {
      out.push_back(ViewRowOp{info->name, std::move(r)});
    }
  }
  return out;
}

}  // namespace xvu
