#include "src/core/system.h"

#include <algorithm>

#include "src/common/failpoint.h"
#include "src/xpath/parser.h"

namespace xvu {

Result<std::unique_ptr<UpdateSystem>> UpdateSystem::Create(Atg atg,
                                                           Database db,
                                                           Options options) {
  std::unique_ptr<UpdateSystem> sys(
      new UpdateSystem(std::move(atg), std::move(db), options));
  XVU_RETURN_NOT_OK(sys->Initialize());
  return sys;
}

Result<std::unique_ptr<UpdateSystem>> UpdateSystem::Create(Atg atg,
                                                           Database db) {
  return Create(std::move(atg), std::move(db), Options());
}

Status UpdateSystem::Initialize() {
  obs::Configure(options_.obs);
  // Reset any previous state: Initialize doubles as a full resync. The
  // eval cache must go too — a fresh DagView restarts its version counter,
  // so stale entries could otherwise collide with new versions. The same
  // aliasing argument drops the cached snapshot state: already-pinned
  // handles keep serving their (pre-resync) epoch from their own copy,
  // but new acquisitions must rebuild against the fresh counter.
  eval_cache_.Clear();
  published_.reset();
  if (options_.worker_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
  store_ = ViewStore();
  dag_ = DagView();
  Publisher pub(&atg_, &db_);
  XVU_ASSIGN_OR_RETURN(dag_, pub.PublishAll(&store_));
  XVU_RETURN_NOT_OK(engine_.Rebuild(dag_));
  read_epoch_.store(dag_.version(), std::memory_order_release);
  return Status::OK();
}

void UpdateSystem::PublishEpoch() {
  const uint64_t version = dag_.version();
  uint64_t floor = epochs_->MinPinnedOr(version);
  if (published_ != nullptr && published_->epoch < floor) {
    floor = published_->epoch;
  }
  dag_.SetJournalRetainFloor(floor);
  read_epoch_.store(version, std::memory_order_release);
}

Snapshot UpdateSystem::AcquireSnapshot() {
  obs::TraceSpan span("snapshot.acquire");
  XVU_OBS_LATENCY(lat, "xvu.snapshot.acquire.ns");
  std::lock_guard<std::mutex> lock(commit_mu_);
  XVU_OBS_COUNT("xvu.snapshot.acquired", 1);
  if (published_ == nullptr || published_->epoch != dag_.version()) {
    // A write moved the epoch since the last acquisition: rebuild the
    // shared immutable state (the amortized copy-on-write transition).
    obs::TraceSpan rebuild("snapshot.state_rebuild");
    XVU_OBS_COUNT("xvu.snapshot.state_rebuilds", 1);
    auto state = std::make_shared<SnapshotState>();
    state->epoch = dag_.version();
    state->dag = dag_;
    state->reach = engine_.reach();
    if (published_ != nullptr) {
      // Carry the previous epoch's eval memo forward through the ∆V
      // journal so hot paths stay warm across epochs.
      state->cache.AdoptPatched(published_->cache, state->dag, state->reach);
      XVU_OBS_COUNT("xvu.snapshot.carry_forwards", 1);
    }
    published_ = std::move(state);
    PublishEpoch();  // retain floor may now advance past retired epochs
    rebuild.Arg("epoch", published_->epoch);
  }
  span.Arg("epoch", published_->epoch);
  return Snapshot(published_, epochs_);
}

Result<DagView> UpdateSystem::Republish() const {
  Publisher pub(&atg_, &db_);
  return pub.PublishAll(nullptr);
}

Result<EvalResult> UpdateSystem::Query(const Path& p) const {
  XPathEvaluator ev(&dag_, &engine_.reach());
  return ev.Evaluate(p);
}

Result<EvalResult> UpdateSystem::Query(const std::string& xpath) const {
  XVU_ASSIGN_OR_RETURN(Path p, ParseXPath(xpath));
  return Query(p);
}

Status UpdateSystem::ApplyDeltaRTracked(const RelationalUpdate& dr,
                                        std::vector<TableOp>* undo) {
  // On failure the partial ∆R is rolled back here and `undo` cleared, so
  // callers' own rollback paths (RollbackWrite) see nothing left to undo.
  auto fail = [&](Status st) {
    Rollback(*undo);
    undo->clear();
    return st;
  };
  for (const TableOp& op : dr.ops) {
    Table* t = db_.GetTable(op.table);
    if (t == nullptr) {
      return fail(Status::NotFound("table " + op.table));
    }
    if (op.kind == TableOp::Kind::kInsert) {
      Tuple key = t->schema().KeyOf(op.row);
      const Tuple* existing = t->FindByKey(key);
      if (existing != nullptr) {
        if (*existing == op.row) continue;  // no-op, nothing to undo
        return fail(
            Status::Rejected("∆R insert conflicts with existing tuple " +
                             TupleToString(*existing) + " in " + op.table));
      }
      Status st = t->Insert(op.row);
      if (!st.ok()) return fail(st);
      undo->push_back(TableOp{TableOp::Kind::kDelete, op.table, op.row});
    } else {
      Status st = t->DeleteByKey(t->schema().KeyOf(op.row));
      if (!st.ok()) return fail(st);
      undo->push_back(TableOp{TableOp::Kind::kInsert, op.table, op.row});
    }
  }
  return Status::OK();
}

void UpdateSystem::Rollback(const std::vector<TableOp>& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    Table* t = db_.GetTable(it->table);
    if (t == nullptr) continue;
    if (it->kind == TableOp::Kind::kInsert) {
      (void)t->Insert(it->row);
    } else {
      (void)t->DeleteByKey(t->schema().KeyOf(it->row));
    }
  }
}

void UpdateSystem::UnpublishSubtreeRows(const Publisher::SubtreeResult& st) {
  for (auto it = st.new_nodes.rbegin(); it != st.new_nodes.rend(); ++it) {
    NodeId n = *it;
    const std::string& type = dag_.node(n).type;
    // Witness rows added during this publication all have a new parent.
    for (const std::string& vn : store_.EdgeViewNames()) {
      const EdgeViewInfo* info = store_.GetEdgeView(vn);
      if (info->parent_type != type) continue;
      Table* vt = store_.db().GetTable(vn);
      std::vector<Tuple> rows;
      vt->ForEach([&](const Tuple& r) {
        if (r[0] == Value::Int(static_cast<int64_t>(n))) rows.push_back(r);
      });
      for (const Tuple& r : rows) (void)store_.RemoveEdgeRow(vn, r);
    }
    (void)store_.RemoveGenRow(type, static_cast<int64_t>(n));
  }
}

Status UpdateSystem::RollbackWrite(const WriteUndo& ctx) {
  // Store rows first, newest phase first, while the DAG still has the
  // batch's nodes: reclaimed-row restores read nothing, but the
  // unpublish pass below resolves node labels, and restoring reclaim
  // before unpublish means a row belonging to a batch-created node is
  // first re-added and then swept away with its subtree.
  for (auto it = ctx.reclaimed_gen_rows.rbegin();
       it != ctx.reclaimed_gen_rows.rend(); ++it) {
    (void)store_.AddGenRow(std::get<0>(*it), std::get<1>(*it),
                           std::get<2>(*it));
  }
  for (auto it = ctx.reclaimed_edge_rows.rbegin();
       it != ctx.reclaimed_edge_rows.rend(); ++it) {
    (void)store_.AddEdgeRow(it->view_name, it->row);
  }
  for (auto it = ctx.added_rows.rbegin(); it != ctx.added_rows.rend(); ++it) {
    (void)store_.RemoveEdgeRow(it->view_name, it->row);
  }
  for (auto it = ctx.published.rbegin(); it != ctx.published.rend(); ++it) {
    UnpublishSubtreeRows(*it);
  }
  for (auto it = ctx.removed_rows.rbegin(); it != ctx.removed_rows.rend();
       ++it) {
    (void)store_.AddEdgeRow(it->view_name, it->row);
  }
  Rollback(ctx.undo);
  Status rewind = dag_.RewindTo(ctx.snapshot_version);
  if (!rewind.ok()) {
    // The bounded journal evicted part of the rewind window (only
    // possible for batches with > capacity mutations): the exact rewind
    // is impossible, but the base ∆R above is already restored, so a
    // full resync rebuilds every derived structure consistently.
    return Initialize();
  }
  if (ctx.maintenance_started) {
    // M, L, and the cursor may reflect the undone mutations; rebuild
    // them for the rewound DAG. Rebuild is deterministic and (by the
    // maintenance fuzz's guarantee) bit-identical to what incremental
    // maintenance would have produced at this version.
    XVU_RETURN_NOT_OK(engine_.Rebuild(dag_));
  }
  return Status::OK();
}

Status UpdateSystem::ReclaimCollected(const MaintenanceDelta& delta,
                                      WriteUndo* ctx) {
  for (const auto& [u, v] : delta.orphan_edges) {
    // Types must be read before the node rows are reclaimed; dead nodes
    // are tombstoned but their labels remain accessible.
    const std::string& pt = dag_.node(u).type;
    const std::string& ct = dag_.node(v).type;
    const EdgeViewInfo* info = store_.FindEdgeViewByTypes(pt, ct);
    if (info == nullptr) continue;
    for (const Tuple& row :
         store_.EdgeRowsFor(info->name, static_cast<int64_t>(u),
                            static_cast<int64_t>(v))) {
      XVU_FAIL_POINT(failpoints::kBatchReclaim);
      XVU_RETURN_NOT_OK(store_.RemoveEdgeRow(info->name, row));
      if (ctx != nullptr) {
        ctx->reclaimed_edge_rows.push_back(ViewRowOp{info->name, row});
      }
    }
  }
  for (NodeId n : delta.removed_nodes) {
    XVU_FAIL_POINT(failpoints::kBatchReclaim);
    const DagView::Node& nd = dag_.node(n);
    XVU_RETURN_NOT_OK(store_.RemoveGenRow(nd.type, static_cast<int64_t>(n)));
    if (ctx != nullptr) {
      ctx->reclaimed_gen_rows.emplace_back(nd.type, static_cast<int64_t>(n),
                                           nd.attr);
    }
  }
  return Status::OK();
}

std::string UpdateSystem::DebugFingerprint(bool strict) const {
  std::string out;
  auto add_db = [&out](const char* label, const Database& db) {
    out += label;
    out += '\n';
    for (const std::string& name : db.TableNames()) {
      const Table* t = db.GetTable(name);
      std::vector<std::string> rows;
      t->ForEach([&](const Tuple& r) { rows.push_back(TupleToString(r)); });
      // Physical slot order is not restorable across a delete/re-insert
      // rollback (tombstoned slots + append-only), so rows are compared
      // as a sorted multiset.
      std::sort(rows.begin(), rows.end());
      out += ' ';
      out += name;
      out += '\n';
      for (const std::string& r : rows) {
        out += "  ";
        out += r;
        out += '\n';
      }
    }
  };
  add_db("[base]", db_);
  add_db("[store]", store_.db());

  out += "[dag] root=" + std::to_string(dag_.root()) +
         " version=" + std::to_string(dag_.version()) +
         " nodes=" + std::to_string(dag_.num_nodes()) +
         " edges=" + std::to_string(dag_.num_edges()) +
         " cap=" + std::to_string(dag_.capacity()) + "\n";
  for (NodeId id = 0; id < dag_.capacity(); ++id) {
    out += ' ';
    out += std::to_string(id);
    if (!dag_.alive(id)) {
      out += " dead\n";
      continue;
    }
    const DagView::Node& nd = dag_.node(id);
    out += ' ';
    out += nd.type;
    out += '|';
    out += TupleToString(nd.attr);
    if (nd.is_text) out += "|text";
    // Exact child order (document order) always; in strict mode also the
    // exact parent-vector layout, which the rewind must restore
    // byte-identically. Non-strict sorts parents: swap-erase layout
    // depends on GC removal order, which an absorbed fault may change.
    out += " c=";
    for (NodeId c : dag_.children(id)) {
      out += std::to_string(c);
      out += ',';
    }
    out += " p=";
    std::vector<NodeId> parents(dag_.parents(id).begin(),
                                dag_.parents(id).end());
    if (!strict) std::sort(parents.begin(), parents.end());
    for (NodeId p : parents) {
      out += std::to_string(p);
      out += ',';
    }
    out += '\n';
  }

  out += "[topo] ";
  for (NodeId v : engine_.topo().order()) {
    out += std::to_string(v);
    out += ',';
  }
  out += "\n[reach]\n";
  for (NodeId d = 0; d < dag_.capacity(); ++d) {
    const Reachability::Row& anc = engine_.reach().Ancestors(d);
    if (anc.empty()) continue;
    out += ' ';
    out += std::to_string(d);
    out += "<-";
    for (NodeId a : anc) {
      out += std::to_string(a);
      out += ',';
    }
    out += '\n';
  }
  out +=
      "[cursor] " + std::to_string(engine_.maintained_version()) + "\n";

  if (strict) {
    // The newest slice of the ∆V journal. Bounded so that capacity
    // eviction of *old* entries during a batch (which a rewind cannot
    // restore, and which changes nothing observable) stays outside the
    // comparison window.
    constexpr uint64_t kJournalTail = 64;
    const uint64_t v = dag_.version();
    out += "[journal]\n";
    for (const DagDelta& d :
         dag_.JournalSince(v > kJournalTail ? v - kJournalTail : 0)) {
      out += ' ';
      out += d.ToString();
      out += '\n';
    }
  }
  out += "[cache]\n";
  out += eval_cache_.DebugFingerprint();
  return out;
}

Status UpdateSystem::ApplyInsert(const std::string& elem_type,
                                 const Tuple& attr, const Path& p) {
  obs::TraceSpan span("op.insert");
  XVU_OBS_LATENCY(lat, "xvu.op.insert.ns");
  UpdateBatch batch;
  batch.Insert(elem_type, attr, p);
  return ApplyWrite(batch, "insert", /*store_fresh_evals=*/false);
}

Status UpdateSystem::ApplyDelete(const Path& p) {
  obs::TraceSpan span("op.delete");
  XVU_OBS_LATENCY(lat, "xvu.op.delete.ns");
  UpdateBatch batch;
  batch.Delete(p);
  return ApplyWrite(batch, "delete", /*store_fresh_evals=*/false);
}

void UpdateSystem::RecordOpMetrics(const char* kind, const Status& st) {
  if (!obs::MetricsEnabled()) return;
  // `kind` varies per caller, so the names are dynamic — registry lookups
  // instead of the (per-site-cached) XVU_OBS_* macros. Once per op.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
  const std::string prefix = std::string("xvu.op.") + kind;
  reg.GetCounter(prefix + (st.ok() ? ".committed" : ".rejected"))->Add(1);
  reg.GetHistogram("xvu.phase.xpath.ns", "ns")
      ->Record(static_cast<uint64_t>(stats_.xpath_seconds * 1e9));
  reg.GetHistogram("xvu.phase.translate.ns", "ns")
      ->Record(static_cast<uint64_t>(stats_.translate_seconds * 1e9));
  reg.GetHistogram("xvu.phase.maintain.ns", "ns")
      ->Record(static_cast<uint64_t>(stats_.maintain_seconds * 1e9));
  reg.GetCounter("xvu.delta_v.rows")->Add(stats_.delta_v);
  reg.GetCounter("xvu.delta_r.ops")->Add(stats_.delta_r);
}

Status UpdateSystem::ApplyStatement(const std::string& stmt) {
  XVU_ASSIGN_OR_RETURN(XmlUpdate u, ParseUpdate(stmt, atg_));
  if (u.kind == XmlUpdate::Kind::kDelete) return ApplyDelete(u.path);
  return ApplyInsert(u.elem_type, u.attr, u.path);
}

}  // namespace xvu
