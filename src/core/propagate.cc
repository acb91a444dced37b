// Incremental publishing: propagating raw relational updates into the
// maintained view (the [8]-substrate the paper's framework builds on —
// Fig.3 keeps I, V, M and L in sync after every ∆R).
//
// Insertion of a base tuple t into table T: for every edge view whose
// rule mentions T and every occurrence of T in its FROM list, the rows the
// insertion contributes are exactly the delta-join results with that
// occurrence pinned to t (evaluated against the post-insert database).
// Each contributed row may create a new child subtree (published
// incrementally, sharing existing nodes) and/or a new edge under an
// existing parent.
//
// Deletion of a base tuple: every materialized witness row whose key
// columns at a T-occurrence match t's key disappears; edges left without
// witnesses are removed.
//
// After each base op, MaintenanceEngine::MaintainBatch brings M and L
// forward over the op's ∆V journal window and garbage-collects what
// became unreachable; ReclaimCollected drops the collected coding rows.

#include <unordered_set>

#include "src/core/system.h"

namespace xvu {

Status UpdateSystem::PropagateBaseInsert(const std::string& table,
                                         const Tuple& row) {
  for (const std::string& vn : store_.EdgeViewNames()) {
    const EdgeViewInfo* info = store_.GetEdgeView(vn);
    const SpjQuery& rule = info->rule;
    const Table* gen =
        store_.db().GetTable(ViewStore::GenTableName(info->parent_type));
    if (gen == nullptr) {
      return Status::Internal("missing gen table for " + info->parent_type);
    }
    for (size_t occ = 0; occ < rule.tables().size(); ++occ) {
      if (rule.tables()[occ].table != table) continue;
      // Delta join with this occurrence pinned to the inserted tuple,
      // grouped by the rule's parameter values (each group belongs to the
      // parents with those semantic-attribute values).
      XVU_ASSIGN_OR_RETURN(auto grouped,
                           rule.EvalGroupedByParamsPinned(db_, occ, row));
      for (auto& [params, rows] : grouped) {
        // Parents: gen rows whose attribute matches the parameters.
        std::vector<NodeId> parents;
        gen->ForEach([&](const Tuple& gen_row) {
          for (size_t p = 0; p < params.size(); ++p) {
            if (gen_row[1 + p] != params[p]) return;
          }
          parents.push_back(static_cast<NodeId>(gen_row[0].as_int()));
        });
        if (parents.empty()) continue;  // parent node not published
        for (const SpjQuery::WitnessedRow& wr : rows) {
          Tuple child_attr(
              wr.projected.begin(),
              wr.projected.begin() +
                  static_cast<std::ptrdiff_t>(info->attr_arity));
          // Publish the child subtree (shares existing nodes; evaluates
          // rules against the already-updated base).
          Publisher pub(&atg_, &db_);
          XVU_ASSIGN_OR_RETURN(
              Publisher::SubtreeResult st,
              pub.PublishSubtree(info->child_type, child_attr, &dag_,
                                 &store_));
          if (st.cyclic) {
            return Status::Rejected(
                "relational update makes the view cyclic");
          }
          // Cycle guard against the live DAG (M is brought forward only
          // after the whole op): the subtree must not contain a parent.
          // Connecting a parent outside the cone leaves the cone as is.
          std::vector<NodeId> cone = CollectDescOrSelf(dag_, {st.root});
          std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
          for (NodeId u : parents) {
            if (cone_set.count(u) > 0) {
              return Status::Rejected(
                  "relational update makes the view cyclic");
            }
            (void)dag_.AddEdge(u, st.root);
            XVU_RETURN_NOT_OK(store_.AddEdgeRow(
                vn, ViewStore::MakeEdgeRow(static_cast<int64_t>(u),
                                           static_cast<int64_t>(st.root),
                                           wr.projected)));
          }
        }
      }
    }
  }
  return Status::OK();
}

Status UpdateSystem::PropagateBaseDelete(const std::string& table,
                                         const Tuple& row) {
  // Drop the witness rows that used the deleted tuple, per view, and
  // every edge left without a witness.
  for (const std::string& vn : store_.EdgeViewNames()) {
    const EdgeViewInfo* info = store_.GetEdgeView(vn);
    Table* vt = store_.db().GetTable(vn);
    const Table* bt = db_.GetTable(table);
    if (vt == nullptr || bt == nullptr) continue;
    Tuple key = bt->schema().KeyOf(row);
    std::vector<Tuple> dead_rows;
    for (size_t occ = 0; occ < info->rule.tables().size(); ++occ) {
      if (info->rule.tables()[occ].table != table) continue;
      const std::vector<size_t>& kp = info->key_positions[occ];
      vt->ForEach([&](const Tuple& vrow) {
        for (size_t k = 0; k < kp.size(); ++k) {
          if (vrow[2 + kp[k]] != key[k]) return;
        }
        dead_rows.push_back(vrow);
      });
    }
    for (const Tuple& vrow : dead_rows) {
      // May already be gone (two occurrences matched the same row).
      Status st = store_.RemoveEdgeRow(vn, vrow);
      if (!st.ok() && st.code() == StatusCode::kNotFound) continue;
      XVU_RETURN_NOT_OK(st);
      NodeId u = static_cast<NodeId>(vrow[0].as_int());
      NodeId v = static_cast<NodeId>(vrow[1].as_int());
      if (store_.EdgeRowsFor(vn, vrow[0].as_int(), vrow[1].as_int())
              .empty() &&
          dag_.HasEdge(u, v)) {
        XVU_RETURN_NOT_OK(dag_.RemoveEdge(u, v));
      }
    }
  }
  return Status::OK();
}

Status UpdateSystem::ApplyRelationalUpdate(const RelationalUpdate& dr) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  Status st = ApplyRelationalUpdateImpl(dr);
  PublishEpoch();
  return st;
}

Status UpdateSystem::ApplyRelationalUpdateImpl(const RelationalUpdate& dr) {
  auto maintain = [this]() -> Status {
    MaintenanceEngine::BatchOptions maintain_options;
    maintain_options.strategy = options_.maintenance;
    MaintenanceEngine::BatchReport report;
    XVU_RETURN_NOT_OK(engine_.MaintainBatch(&dag_, maintain_options, &report));
    return ReclaimCollected(report.delta, nullptr);
  };
  for (const TableOp& op : dr.ops) {
    Table* t = db_.GetTable(op.table);
    if (t == nullptr) return Status::NotFound("table " + op.table);
    if (op.kind == TableOp::Kind::kInsert) {
      Tuple key = t->schema().KeyOf(op.row);
      const Tuple* existing = t->FindByKey(key);
      if (existing != nullptr) {
        if (*existing == op.row) continue;  // idempotent
        return Status::Rejected("insert conflicts with existing tuple " +
                                TupleToString(*existing) + " in " +
                                op.table);
      }
      XVU_RETURN_NOT_OK(t->Insert(op.row));
      Status st = PropagateBaseInsert(op.table, op.row);
      if (st.ok()) st = maintain();
      if (!st.ok()) {
        // Cyclic-view rejections leave the base consistent by undoing the
        // offending tuple; the view may hold a partially propagated edge
        // set, so resynchronize from scratch.
        (void)t->DeleteByKey(t->schema().KeyOf(op.row));
        (void)Initialize();
        return st;
      }
    } else {
      XVU_RETURN_NOT_OK(t->DeleteByKey(t->schema().KeyOf(op.row)));
      XVU_RETURN_NOT_OK(PropagateBaseDelete(op.table, op.row));
      XVU_RETURN_NOT_OK(maintain());
    }
  }
  return Status::OK();
}

}  // namespace xvu
