#include "src/core/system.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "src/common/failpoint.h"
#include "src/core/translate.h"
#include "src/dtd/validate.h"
#include "src/viewupdate/minimal_delete.h"
#include "src/xpath/parser.h"

namespace xvu {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

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
    state->topo = engine_.topo();
    state->reach = engine_.reach();
    if (published_ != nullptr) {
      // Carry the previous epoch's eval memo forward through the ∆V
      // journal so hot paths stay warm across epochs.
      state->cache.AdoptPatched(published_->cache, state->dag, state->topo,
                                state->reach);
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
  XPathEvaluator ev(&dag_, &engine_.topo(), &engine_.reach());
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

void UpdateSystem::RollbackSubtree(const Publisher::SubtreeResult& st) {
  for (auto it = st.new_edges.rbegin(); it != st.new_edges.rend(); ++it) {
    (void)dag_.RemoveEdge(it->first, it->second);
  }
  UnpublishSubtreeRows(st);
  for (auto it = st.new_nodes.rbegin(); it != st.new_nodes.rend(); ++it) {
    (void)dag_.RemoveNode(*it);
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
  std::lock_guard<std::mutex> lock(commit_mu_);
  stats_ = UpdateStats{};
  stats_.batch_ops = 1;
  stats_.distinct_paths = 1;
  stats_.xpath_evaluations = 1;
  WriteUndo ctx;
  ctx.snapshot_version = dag_.version();
  stats_.snapshot_version = ctx.snapshot_version;
  if (options_.op_timeout_seconds > 0) {
    ctx.deadline = Deadline::After(options_.op_timeout_seconds);
  }
  Status st = ApplyInsertImpl(elem_type, attr, p, &ctx);
  Status rb = st.ok() ? Status::OK() : RollbackWrite(ctx);
  PublishEpoch();
  RecordOpMetrics("insert", st);
  XVU_RETURN_NOT_OK(rb);
  return st;
}

Status UpdateSystem::ApplyInsertImpl(const std::string& elem_type,
                                     const Tuple& attr, const Path& p,
                                     WriteUndo* ctx) {
  // Phase 0: schema-level validation (Section 2.4).
  XVU_RETURN_NOT_OK(ValidateInsert(atg_.dtd(), p, elem_type));
  const std::vector<Column>* schema = atg_.AttrSchema(elem_type);
  if (schema == nullptr || schema->size() != attr.size()) {
    return Status::InvalidArgument("attribute arity mismatch for " +
                                   elem_type);
  }

  // Phase 1: XPath evaluation + side-effect detection.
  auto t0 = Clock::now();
  XPathEvaluator evaluator(&dag_, &engine_.topo(), &engine_.reach());
  XVU_ASSIGN_OR_RETURN(EvalResult ev, evaluator.Evaluate(p));
  auto t1 = Clock::now();
  stats_.xpath_seconds = Seconds(t0, t1);
  stats_.selected = ev.selected.size();
  stats_.had_side_effects = ev.has_side_effects();
  if (ev.selected.empty()) {
    return Status::Rejected("XPath selects no nodes; nothing to insert into");
  }
  if (ev.has_side_effects() &&
      options_.side_effects == SideEffectPolicy::kAbort) {
    return Status::Rejected(
        "insertion has XML side effects (" +
        std::to_string(ev.side_effect_nodes.size()) +
        " additional affected nodes); aborted by policy");
  }
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "insert: XPath evaluated"));

  // Cycle guard for a pre-existing subtree root: inserting (u, r_A) with
  // r_A an ancestor-or-self of some target u would loop the view.
  NodeId existing_root = dag_.FindNode(elem_type, attr);
  if (existing_root != kInvalidNode) {
    for (NodeId u : ev.selected) {
      if (u == existing_root || engine_.reach().IsAncestor(existing_root, u)) {
        return Status::Rejected(
            "inserting (" + elem_type +
            ", ...) here would make the view cyclic (the subtree already "
            "contains the target)");
      }
    }
  }

  // Phase 2: ∆X → ∆V → ∆R.
  XVU_ASSIGN_OR_RETURN(
      std::vector<ViewRowOp> dv,
      XInsertConnectRows(store_, db_, dag_, ev.selected, elem_type, attr));
  stats_.delta_v = dv.size();
  InsertOptions ins_options = options_.insert;
  ins_options.deadline = ctx->deadline;
  XVU_ASSIGN_OR_RETURN(
      InsertTranslation tr,
      TranslateGroupInsertion(store_, db_, dv, ins_options));
  stats_.used_sat = tr.used_sat;
  stats_.sat_propagations = tr.sat_stats.propagations;
  stats_.sat_conflicts = tr.sat_stats.conflicts;
  stats_.sat_learned_clauses = tr.sat_stats.learned_clauses;
  stats_.sat_flips = tr.sat_stats.flips;
  stats_.sat_winner_lane = tr.sat_winner_lane;
  stats_.sat_seconds = tr.sat_seconds;
  stats_.delta_r = tr.delta_r.ops.size();
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "insert: translated"));

  // Phase 2b: apply ∆R, publish ST(A, t), connect.
  XVU_RETURN_NOT_OK(ApplyDeltaRTracked(tr.delta_r, &ctx->undo));
  XVU_FAIL_POINT(failpoints::kInsertApplyDeltaR);

  Publisher pub(&atg_, &db_);
  XVU_ASSIGN_OR_RETURN(Publisher::SubtreeResult st,
                       pub.PublishSubtree(elem_type, attr, &dag_, &store_));
  stats_.subtree_edges = st.new_edges.size();
  const bool cyclic = st.cyclic;
  ctx->published.push_back(std::move(st));
  const Publisher::SubtreeResult& sub = ctx->published.back();
  if (cyclic) {
    return Status::Rejected("inserted subtree makes the view cyclic");
  }
  XVU_FAIL_POINT(failpoints::kInsertPublish);
  // Connect-edge cycle guard for a freshly published root.
  {
    std::vector<NodeId> cone = CollectDescOrSelf(dag_, {sub.root});
    std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
    for (NodeId u : ev.selected) {
      if (cone_set.count(u) > 0) {
        return Status::Rejected(
            "inserting (" + elem_type +
            ", ...) here would make the view cyclic");
      }
    }
  }
  std::vector<NodeId> connected;
  for (size_t i = 0; i < ev.selected.size(); ++i) {
    NodeId u = ev.selected[i];
    if (dag_.AddEdge(u, sub.root)) connected.push_back(u);
    // Fix up the child_id placeholder and materialize the witness row.
    Tuple row = dv[i].row;
    row[1] = Value::Int(static_cast<int64_t>(sub.root));
    XVU_RETURN_NOT_OK(store_.AddEdgeRow(dv[i].view_name, row));
    ctx->added_rows.push_back(ViewRowOp{dv[i].view_name, std::move(row)});
  }
  auto t2 = Clock::now();
  stats_.translate_seconds = Seconds(t1, t2);
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "insert: applied"));

  // Phase 3: maintenance of M and L (backgroundable per Section 3.4).
  ctx->maintenance_started = true;
  MaintenanceDelta delta;
  XVU_RETURN_NOT_OK(
      engine_.MaintainInsert(dag_, sub.root, sub.new_nodes, connected,
                             &delta));
  XVU_FAIL_POINT(failpoints::kInsertMaintain);
  stats_.maintenance_passes = 1;
  stats_.maintenance_strategy = MaintenanceStrategy::kIncrementalMerge;
  stats_.maintain_seconds = Seconds(t2, Clock::now());
  return Status::OK();
}

Status UpdateSystem::ApplyDelete(const Path& p) {
  obs::TraceSpan span("op.delete");
  XVU_OBS_LATENCY(lat, "xvu.op.delete.ns");
  std::lock_guard<std::mutex> lock(commit_mu_);
  stats_ = UpdateStats{};
  stats_.batch_ops = 1;
  stats_.distinct_paths = 1;
  stats_.xpath_evaluations = 1;
  WriteUndo ctx;
  ctx.snapshot_version = dag_.version();
  stats_.snapshot_version = ctx.snapshot_version;
  if (options_.op_timeout_seconds > 0) {
    ctx.deadline = Deadline::After(options_.op_timeout_seconds);
  }
  Status st = ApplyDeleteImpl(p, &ctx);
  Status rb = st.ok() ? Status::OK() : RollbackWrite(ctx);
  PublishEpoch();
  RecordOpMetrics("delete", st);
  XVU_RETURN_NOT_OK(rb);
  return st;
}

Status UpdateSystem::ApplyDeleteImpl(const Path& p, WriteUndo* ctx) {
  XVU_RETURN_NOT_OK(ValidateDelete(atg_.dtd(), p));

  auto t0 = Clock::now();
  XPathEvaluator evaluator(&dag_, &engine_.topo(), &engine_.reach());
  XVU_ASSIGN_OR_RETURN(EvalResult ev, evaluator.Evaluate(p));
  auto t1 = Clock::now();
  stats_.xpath_seconds = Seconds(t0, t1);
  stats_.selected = ev.selected.size();
  stats_.parent_edges = ev.parent_edges.size();
  stats_.had_side_effects = ev.has_side_effects();
  if (ev.selected.empty()) {
    return Status::Rejected("XPath selects no nodes; nothing to delete");
  }
  if (ev.has_side_effects() &&
      options_.side_effects == SideEffectPolicy::kAbort) {
    return Status::Rejected(
        "deletion has XML side effects (" +
        std::to_string(ev.side_effect_nodes.size()) +
        " additional affected nodes); aborted by policy");
  }
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "delete: XPath evaluated"));

  XVU_ASSIGN_OR_RETURN(std::vector<ViewRowOp> dv,
                       XDeleteRows(store_, dag_, ev.parent_edges));
  stats_.delta_v = dv.size();
  MinimalDeleteOptions del_options;
  del_options.deadline = ctx->deadline;
  Result<RelationalUpdate> dr =
      options_.minimal_deletions
          ? TranslateMinimalDeletion(store_, db_, dv, del_options)
          : TranslateGroupDeletion(store_, db_, dv);
  if (!dr.ok()) return dr.status();
  stats_.delta_r = dr->ops.size();
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "delete: translated"));

  XVU_RETURN_NOT_OK(ApplyDeltaRTracked(*dr, &ctx->undo));
  XVU_FAIL_POINT(failpoints::kDeleteApplyDeltaR);
  // Apply ∆V: drop the edges (journaled, undone by the rewind) and their
  // witness rows (recorded for the store-side restore).
  for (const auto& [u, v] : ev.parent_edges) {
    XVU_RETURN_NOT_OK(dag_.RemoveEdge(u, v));
  }
  for (const ViewRowOp& op : dv) {
    XVU_RETURN_NOT_OK(store_.RemoveEdgeRow(op.view_name, op.row));
    ctx->removed_rows.push_back(op);
  }
  auto t2 = Clock::now();
  stats_.translate_seconds = Seconds(t1, t2);
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "delete: applied"));

  // Maintenance + garbage collection (Fig.8).
  ctx->maintenance_started = true;
  MaintenanceDelta delta;
  XVU_RETURN_NOT_OK(engine_.MaintainDelete(&dag_, ev.selected, &delta));
  XVU_FAIL_POINT(failpoints::kDeleteMaintain);
  XVU_RETURN_NOT_OK(ReclaimCollected(delta, ctx));
  stats_.maintenance_passes = 1;
  stats_.maintenance_strategy = MaintenanceStrategy::kIncrementalMerge;
  stats_.maintain_seconds = Seconds(t2, Clock::now());
  return Status::OK();
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
