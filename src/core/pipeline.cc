#include "src/core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/failpoint.h"
#include "src/core/delta_eval.h"
#include "src/core/system.h"
#include "src/core/translate.h"
#include "src/dtd/validate.h"
#include "src/viewupdate/batch.h"
#include "src/viewupdate/minimal_delete.h"
#include "src/xpath/normal_form.h"
#include "src/xpath/parser.h"

namespace xvu {

void UpdateBatch::Insert(std::string elem_type, Tuple attr, Path p) {
  XmlUpdate u;
  u.kind = XmlUpdate::Kind::kInsert;
  u.elem_type = std::move(elem_type);
  u.attr = std::move(attr);
  u.path = std::move(p);
  ops_.push_back(std::move(u));
}

void UpdateBatch::Delete(Path p) {
  XmlUpdate u;
  u.kind = XmlUpdate::Kind::kDelete;
  u.path = std::move(p);
  ops_.push_back(std::move(u));
}

Status UpdateBatch::Add(const std::string& stmt, const Atg& atg) {
  XVU_ASSIGN_OR_RETURN(XmlUpdate u, ParseUpdate(stmt, atg));
  ops_.push_back(std::move(u));
  return Status::OK();
}

void PathEvalCache::Touch(Entry* e) {
  recency_.splice(recency_.end(), recency_, e->recency_it);
}

void PathEvalCache::EraseEntry(
    std::unordered_map<std::string, Entry>::iterator it) {
  SaveForScope(it->first);
  recency_.erase(it->second.recency_it);
  entries_.erase(it);
}

void PathEvalCache::SaveForScope(const std::string& key) {
  if (!scope_active_ || scope_saved_.count(key) > 0) return;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    scope_saved_.emplace(key, std::nullopt);
  } else {
    scope_saved_.emplace(
        key, std::make_pair(it->second.version, it->second.eval));
  }
}

void PathEvalCache::BeginScope() {
  std::lock_guard<std::mutex> lock(mu_);
  scope_saved_.clear();
  scope_active_ = true;
}

void PathEvalCache::CommitScope() {
  std::lock_guard<std::mutex> lock(mu_);
  scope_saved_.clear();
  scope_active_ = false;
}

void PathEvalCache::RollbackScope(uint64_t rewound_version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!scope_active_) return;  // e.g. a Clear() resync already ran
  scope_active_ = false;       // restores below must not re-record
  for (auto& [key, saved] : scope_saved_) {
    auto it = entries_.find(key);
    // Evaluations and forward patches stamped at or before the rewound
    // version stay valid after the rewind (the batch evaluated against
    // the pre-mutation snapshot); keep the fresher copy.
    if (it != entries_.end() && it->second.version <= rewound_version) {
      continue;
    }
    if (it != entries_.end()) EraseEntry(it);
    if (saved.has_value() && saved->first <= rewound_version) {
      auto [nit, inserted] = entries_.try_emplace(key);
      Entry& e = nit->second;
      e.version = saved->first;
      e.eval = std::move(saved->second);
      e.recency_it = recency_.insert(recency_.end(), &nit->first);
    }
  }
  scope_saved_.clear();
  // Canonicalize the eviction order (version, then key): restores above
  // appended in map-iteration order, and Compact must stay deterministic
  // across a rollback.
  // list::sort moves nodes, not elements, so every recency_it stays
  // bound to its entry.
  recency_.sort([this](const std::string* a, const std::string* b) {
    const Entry& ea = entries_.at(*a);
    const Entry& eb = entries_.at(*b);
    return ea.version != eb.version ? ea.version < eb.version : *a < *b;
  });
}

const EvalResult* PathEvalCache::Lookup(const std::string& key,
                                        uint64_t dag_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.version != dag_version) {
    EraseEntry(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.eval.result;
}

bool PathEvalCache::LookupCopy(const std::string& key, uint64_t dag_version,
                               EvalResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  if (it->second.version != dag_version) {
    EraseEntry(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second.eval.result;
  return true;
}

void PathEvalCache::AdoptPatched(const PathEvalCache& from, const DagView& dag,
                                 const Reachability& reach) {
  // Copy the source entries out under the source's lock (live snapshot
  // readers may still be storing into it), then patch and store without
  // holding both locks at once.
  std::vector<std::pair<std::string, std::pair<uint64_t, CachedEval>>> copied;
  {
    std::lock_guard<std::mutex> lock(from.mu_);
    copied.reserve(from.entries_.size());
    for (const auto& [key, entry] : from.entries_) {
      copied.emplace_back(key,
                          std::make_pair(entry.version, entry.eval));
    }
  }
  std::sort(copied.begin(), copied.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const uint64_t version = dag.version();
  for (auto& [key, stamped] : copied) {
    auto& [entry_version, eval] = stamped;
    bool ok = entry_version == version;
    if (!ok && dag.JournalCovers(entry_version)) {
      ok = TryPatchEval(dag, reach, dag.JournalSince(entry_version), &eval);
    }
    if (!ok) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.invalidations;
      continue;
    }
    Store(std::move(key), version, std::move(eval));
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.delta_patches;
  }
}

const EvalResult* PathEvalCache::LookupOrPatch(const std::string& key,
                                               const DagView& dag,
                                               const Reachability& reach,
                                               Outcome* outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  auto set_outcome = [&](Outcome o) {
    if (outcome != nullptr) *outcome = o;
  };
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    set_outcome(Outcome::kMiss);
    return nullptr;
  }
  Entry& e = it->second;
  if (e.version == dag.version()) {
    ++stats_.hits;
    set_outcome(Outcome::kHit);
    return &e.eval.result;
  }
  SaveForScope(it->first);  // the patch below mutates the entry in place
  if (dag.JournalCovers(e.version) &&
      TryPatchEval(dag, reach, dag.JournalSince(e.version), &e.eval)) {
    e.version = dag.version();
    Touch(&e);  // now the newest version: back of the eviction order
    ++stats_.delta_patches;
    set_outcome(Outcome::kPatched);
    return &e.eval.result;
  }
  EraseEntry(it);
  ++stats_.invalidations;
  ++stats_.misses;
  ++stats_.fallback_evals;
  set_outcome(Outcome::kFallback);
  return nullptr;
}

const EvalResult* PathEvalCache::Store(std::string key, uint64_t dag_version,
                                       CachedEval eval) {
  std::lock_guard<std::mutex> lock(mu_);
  SaveForScope(key);
  auto [it, inserted] = entries_.try_emplace(std::move(key));
  Entry& e = it->second;
  if (inserted) {
    e.recency_it = recency_.insert(recency_.end(), &it->first);
  } else {
    Touch(&e);
  }
  e.version = dag_version;
  e.eval = std::move(eval);
  return &e.eval.result;
}

const EvalResult* PathEvalCache::Store(std::string key, uint64_t dag_version,
                                       EvalResult result) {
  CachedEval eval;
  eval.result = std::move(result);  // no trace: never patchable
  return Store(std::move(key), dag_version, std::move(eval));
}

void PathEvalCache::Compact(size_t max_entries) {
  std::lock_guard<std::mutex> lock(mu_);
  while (entries_.size() > max_entries) {
    auto it = entries_.find(*recency_.front());
    EraseEntry(it);
    ++stats_.invalidations;
  }
}

void PathEvalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  recency_.clear();
  // A Clear is a resync: restoring pre-scope entries afterwards would
  // resurrect results keyed against a restarted version counter.
  scope_saved_.clear();
  scope_active_ = false;
}

std::string PathEvalCache::DebugFingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const std::string*> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  std::string out;
  auto append_ids = [&out](const std::vector<NodeId>& ids) {
    for (NodeId v : ids) {
      out += std::to_string(v);
      out += ',';
    }
    out += ';';
  };
  for (const std::string* key : keys) {
    const Entry& e = entries_.at(*key);
    out += *key;
    out += '@';
    out += std::to_string(e.version);
    out += '|';
    append_ids(e.eval.result.selected);
    for (const auto& [u, v] : e.eval.result.parent_edges) {
      out += std::to_string(u);
      out += '>';
      out += std::to_string(v);
      out += ',';
    }
    out += ';';
    append_ids(e.eval.result.side_effect_nodes);
    out += '[';
    for (const DenseNodeSet& step : e.eval.reached) {
      append_ids(step.items);
    }
    out += "]\n";
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string OpLabel(size_t index, const XmlUpdate& op) {
  return "op #" + std::to_string(index) + " (" + op.ToString() + ")";
}

}  // namespace

Status UpdateSystem::ApplyBatch(const UpdateBatch& batch) {
  obs::TraceSpan span("op.batch");
  span.Arg("ops", batch.size());
  XVU_OBS_LATENCY(lat, "xvu.op.batch.ns");
  return ApplyWrite(batch, "batch", /*store_fresh_evals=*/true);
}

Status UpdateSystem::ApplyWrite(const UpdateBatch& batch, const char* kind,
                                bool store_fresh_evals) {
  std::lock_guard<std::mutex> lock(commit_mu_);
  stats_ = UpdateStats{};
  stats_.batch_ops = batch.size();
  stats_.snapshot_version = dag_.version();
  if (batch.empty()) return Status::OK();
  WriteUndo ctx;
  ctx.snapshot_version = dag_.version();
  if (options_.op_timeout_seconds > 0) {
    ctx.deadline = Deadline::After(options_.op_timeout_seconds);
  }
  // The eval-cache scope repairs the cache if the write fails: entries
  // it displaced (evictions, unpatchable drops) come back, while its
  // snapshot-version evaluations are kept — valid after the rewind, so
  // resubmitting a rejected batch hits them.
  eval_cache_.BeginScope();
  Status st = ApplyBatchImpl(batch, store_fresh_evals, &ctx);
  if (obs::MetricsEnabled()) {
    XVU_OBS_COUNT("xvu.batch.ops", stats_.batch_ops);
    XVU_OBS_COUNT("xvu.batch.xpath_cache_hits", stats_.xpath_cache_hits);
    XVU_OBS_COUNT("xvu.batch.xpath_evaluations", stats_.xpath_evaluations);
    XVU_OBS_COUNT("xvu.batch.delta_patches", stats_.delta_patches);
    XVU_OBS_COUNT("xvu.batch.fallback_evals", stats_.fallback_evals);
    XVU_OBS_COUNT("xvu.batch.dedup_ops", stats_.dedup_ops);
  }
  if (st.ok()) {
    eval_cache_.CommitScope();
    PublishEpoch();
    RecordOpMetrics(kind, st);
    return st;
  }
  Status rb = RollbackWrite(ctx);
  // After a RollbackWrite resync (journal window evicted) the cache was
  // Clear()ed, which discards the scope; RollbackScope is then a no-op.
  eval_cache_.RollbackScope(ctx.snapshot_version);
  PublishEpoch();
  RecordOpMetrics(kind, st);
  if (!rb.ok()) return rb;
  return st;
}

Status UpdateSystem::ApplyBatchImpl(const UpdateBatch& batch,
                                    bool store_fresh_evals, WriteUndo* ctx) {
  const std::vector<XmlUpdate>& ops = batch.ops();

  // Phase boundaries become complete trace events stamped as each phase
  // ends; an early rejection simply leaves the later phases without
  // events (the enclosing op.batch / op.insert / op.delete span still
  // shows the total).
  const bool tracing = obs::TracingEnabled();
  uint64_t phase_start = tracing ? obs::TraceNowNs() : 0;
  auto end_phase = [&](const char* name, const char* arg_name,
                       uint64_t arg_value) {
    if (!tracing) return;
    const uint64_t now = obs::TraceNowNs();
    obs::TraceComplete(name, phase_start, now - phase_start, arg_name,
                       arg_value);
    phase_start = now;
  };

  // ---- Phase 0: schema-level validation of every op, before any work.
  for (size_t i = 0; i < ops.size(); ++i) {
    const XmlUpdate& op = ops[i];
    if (op.kind == XmlUpdate::Kind::kInsert) {
      XVU_RETURN_NOT_OK(ValidateInsert(atg_.dtd(), op.path, op.elem_type));
      const std::vector<Column>* schema = atg_.AttrSchema(op.elem_type);
      if (schema == nullptr || schema->size() != op.attr.size()) {
        return Status::InvalidArgument("attribute arity mismatch for " +
                                       op.elem_type + " in " +
                                       OpLabel(i, op));
      }
    } else {
      XVU_RETURN_NOT_OK(ValidateDelete(atg_.dtd(), op.path));
    }
  }
  end_phase("batch.phase.validate", "ops", ops.size());

  // ---- Phase 1: shared XPath evaluation. All ops see the same snapshot
  // (nothing is mutated until phase 4), so each distinct normal-form path
  // is evaluated exactly once; ops sharing a key are deduplicated up
  // front and cost no additional cache probe. Entries surviving from
  // earlier batches are delta-patched against the ∆V journal instead of
  // being invalidated; only unpatchable ones fall back to a fresh
  // (traced) evaluation.
  //
  // The cache's two-phase protocol: (collect) probe once per distinct key
  // serially — hits and patches resolve here, misses queue up; (evaluate)
  // run the queued evaluations on the worker pool, touching nothing but
  // the immutable snapshot; (publish) store the results serially in
  // first-occurrence order. Bit-identical for any worker count.
  auto t0 = Clock::now();
  XPathEvaluator evaluator(&dag_, &engine_.reach());
  const uint64_t snapshot_version = dag_.version();
  stats_.workers = pool() != nullptr ? pool()->workers() : 1;
  eval_cache_.Compact();
  struct DistinctPath {
    std::string key;
    const Path* path = nullptr;
    const EvalResult* ev = nullptr;
    PathEvalCache::Outcome outcome = PathEvalCache::Outcome::kMiss;
  };
  std::vector<DistinctPath> distinct;
  distinct.reserve(ops.size());
  std::unordered_map<std::string, size_t> key_to_distinct;
  key_to_distinct.reserve(ops.size());
  std::vector<size_t> op_distinct(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string key = NormalFormKey(ops[i].path);
    auto [it, inserted] = key_to_distinct.emplace(std::move(key),
                                                  distinct.size());
    if (inserted) {
      DistinctPath d;
      d.key = it->first;
      d.path = &ops[i].path;
      distinct.push_back(std::move(d));
    } else {
      ++stats_.dedup_ops;
    }
    op_distinct[i] = it->second;
  }
  stats_.distinct_paths = distinct.size();

  // Collect: one serial probe per distinct path.
  std::vector<size_t> miss_idx;
  for (size_t d = 0; d < distinct.size(); ++d) {
    distinct[d].ev =
        eval_cache_.LookupOrPatch(distinct[d].key, dag_, engine_.reach(),
                                  &distinct[d].outcome);
    if (distinct[d].ev == nullptr) miss_idx.push_back(d);
  }
  stats_.parallel_eval_tasks = miss_idx.size();

  // Evaluate: misses fan out on the pool; each task writes only its slot.
  std::vector<CachedEval> fresh(miss_idx.size());
  std::vector<Status> fresh_status(miss_idx.size());
  ParallelFor(pool(), miss_idx.size(), [&](size_t k) {
    // One span per distinct-path evaluation, on whichever worker ran it —
    // the per-lane fan-out Fig.10's breakdown can't show.
    obs::TraceSpan task("batch.eval.path");
    task.Arg("task", k);
    Result<CachedEval> r =
        evaluator.EvaluateTraced(*distinct[miss_idx[k]].path);
    if (r.ok()) {
      fresh[k] = std::move(r).value();
    } else {
      fresh_status[k] = r.status();
    }
  });

  // Publish: store once per miss, in deterministic first-occurrence order
  // (also the order errors are reported in). A statement keeps its fresh
  // evaluations local instead: a cached W1 trace at |C| = 10k holds about
  // 588 KB of masks and items, and storing one per statement raised
  // xvubench's peak RSS on ops_w1_c10k from 264 to 321 MB (145 to 152 MB
  // on readwrite_w2_c5k). It still probed the cache above, so it can
  // patch an entry a batch left; a rejected statement leaves no entry.
  for (size_t k = 0; k < miss_idx.size(); ++k) {
    XVU_RETURN_NOT_OK(fresh_status[k]);
    DistinctPath& d = distinct[miss_idx[k]];
    if (store_fresh_evals) {
      d.ev = eval_cache_.Store(d.key, snapshot_version, std::move(fresh[k]));
    } else {
      d.ev = &fresh[k].result;
    }
  }

  // Per-op accounting and policy checks, in op order — the counters come
  // out exactly as the serial per-op probing produced them (first op of a
  // path pays by its outcome, every duplicate counts as a cache hit).
  std::vector<const EvalResult*> evals(ops.size());
  std::vector<uint8_t> counted(distinct.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const DistinctPath& d = distinct[op_distinct[i]];
    const EvalResult* ev = d.ev;
    evals[i] = ev;
    if (!counted[op_distinct[i]]) {
      counted[op_distinct[i]] = 1;
      switch (d.outcome) {
        case PathEvalCache::Outcome::kHit:
          ++stats_.xpath_cache_hits;
          break;
        case PathEvalCache::Outcome::kPatched:
          ++stats_.delta_patches;
          break;
        case PathEvalCache::Outcome::kFallback:
          ++stats_.fallback_evals;
          ++stats_.xpath_evaluations;
          break;
        case PathEvalCache::Outcome::kMiss:
          ++stats_.xpath_evaluations;
          break;
      }
    } else {
      ++stats_.xpath_cache_hits;
    }
    stats_.selected += ev->selected.size();
    if (ev->has_side_effects()) stats_.had_side_effects = true;
    if (ev->selected.empty()) {
      return Status::Rejected("XPath selects no nodes in " +
                              OpLabel(i, ops[i]));
    }
    if (ev->has_side_effects() &&
        options_.side_effects == SideEffectPolicy::kAbort) {
      return Status::Rejected(
          "XML side effects (" +
          std::to_string(ev->side_effect_nodes.size()) +
          " additional affected nodes) in " + OpLabel(i, ops[i]) +
          "; aborted by policy");
    }
  }
  auto t1 = Clock::now();
  stats_.xpath_seconds = Seconds(t0, t1);
  end_phase("batch.phase.eval", "fresh_evals", miss_idx.size());
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "batch: XPath evaluated"));
  XVU_FAIL_POINT(failpoints::kBatchAfterEval);

  // ---- Phase 2: intra-batch conflict detection (still read-only).
  // (a) Two delete ops selecting the same view edge.
  std::set<std::pair<NodeId, NodeId>> del_edge_set;
  std::vector<std::pair<NodeId, NodeId>> del_edges;  // insertion order
  std::vector<NodeId> del_selected;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != XmlUpdate::Kind::kDelete) continue;
    for (const auto& e : evals[i]->parent_edges) {
      if (!del_edge_set.insert(e).second) {
        return Status::Rejected("intra-batch conflict: edge (" +
                                std::to_string(e.first) + "," +
                                std::to_string(e.second) +
                                ") deleted twice; second time by " +
                                OpLabel(i, ops[i]));
      }
      del_edges.push_back(e);
    }
    del_selected.insert(del_selected.end(), evals[i]->selected.begin(),
                        evals[i]->selected.end());
    stats_.parent_edges += evals[i]->parent_edges.size();
  }
  // (b) A delete op whose edges hang inside a subtree that another delete
  // op tears off: applied sequentially, the later op would no longer find
  // them, so snapshot application is not faithful.
  std::vector<size_t> del_ops;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == XmlUpdate::Kind::kDelete) del_ops.push_back(i);
  }
  if (del_ops.size() > 1) {
    for (size_t j : del_ops) {
      std::vector<NodeId> cone = CollectDescOrSelf(dag_, evals[j]->selected);
      std::unordered_set<NodeId> cone_set;
      cone_set.reserve(cone.size() * 2);
      cone_set.insert(cone.begin(), cone.end());
      for (size_t i : del_ops) {
        if (i == j) continue;
        for (const auto& e : evals[i]->parent_edges) {
          if (cone_set.count(e.first) > 0) {
            return Status::Rejected(
                "intra-batch conflict: " + OpLabel(i, ops[i]) +
                " deletes edges inside a subtree deleted by " +
                OpLabel(j, ops[j]));
          }
        }
      }
    }
  }
  // (c) An insert targeting a node a delete may tear off. Conservative:
  // any target inside desc-or-self of a deleted selection conflicts, even
  // if the node would survive through another parent. Only a batch with
  // both kinds of op walks the cone.
  if (!del_ops.empty() && del_ops.size() < ops.size()) {
    std::vector<NodeId> del_cone = CollectDescOrSelf(dag_, del_selected);
    std::unordered_set<NodeId> del_cone_set;
    del_cone_set.reserve(del_cone.size() * 2);
    del_cone_set.insert(del_cone.begin(), del_cone.end());
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != XmlUpdate::Kind::kInsert) continue;
      for (NodeId u : evals[i]->selected) {
        if (del_cone_set.count(u) > 0) {
          return Status::Rejected(
              "intra-batch conflict: " + OpLabel(i, ops[i]) +
              " targets a node inside a subtree deleted by the same batch");
        }
      }
    }
  }

  end_phase("batch.phase.conflicts", "del_edges", del_edges.size());
  XVU_FAIL_POINT(failpoints::kBatchAfterConflicts);

  // ---- Phase 3: one consolidated ∆V → ∆R translation.
  // Deletes: every selected edge's witness rows, in one group.
  // ∆V counts as soon as it is derived, so a write rejected in
  // translation still reports the rows it tried to apply.
  XVU_ASSIGN_OR_RETURN(std::vector<ViewRowOp> del_dv,
                       XDeleteRows(store_, dag_, del_edges));
  stats_.delta_v = del_dv.size();
  RelationalUpdate dr;
  if (!del_dv.empty()) {
    MinimalDeleteOptions del_options;
    del_options.deadline = ctx->deadline;
    XVU_ASSIGN_OR_RETURN(dr, options_.minimal_deletions
                                 ? TranslateMinimalDeletion(store_, db_,
                                                            del_dv,
                                                            del_options)
                                 : TranslateGroupDeletion(store_, db_,
                                                          del_dv));
  }
  // Inserts: per-op connect rows (identical rows from two ops = conflict),
  // then one group translation — a single symbolic evaluation + SAT
  // encoding for the whole batch.
  struct InsertPlan {
    size_t op_index = 0;
    std::vector<ViewRowOp> dv;
  };
  std::vector<InsertPlan> plans;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != XmlUpdate::Kind::kInsert) continue;
    plans.push_back(InsertPlan{i, {}});
  }
  // Per-op connect rows are independent read-only derivations over the
  // snapshot; fan them out, reporting the first failure in op order.
  std::vector<Status> plan_status(plans.size());
  ParallelFor(pool(), plans.size(), [&](size_t k) {
    obs::TraceSpan task("batch.connect_rows");
    task.Arg("task", k);
    const XmlUpdate& op = ops[plans[k].op_index];
    Result<std::vector<ViewRowOp>> r =
        XInsertConnectRows(store_, db_, dag_,
                           evals[plans[k].op_index]->selected, op.elem_type,
                           op.attr);
    if (r.ok()) {
      plans[k].dv = std::move(r).value();
    } else {
      plan_status[k] = r.status();
    }
  });
  for (const Status& plan_st : plan_status) XVU_RETURN_NOT_OK(plan_st);
  std::vector<const std::vector<ViewRowOp>*> ins_dv_per_op;
  ins_dv_per_op.reserve(plans.size());
  for (const InsertPlan& plan : plans) ins_dv_per_op.push_back(&plan.dv);
  XVU_ASSIGN_OR_RETURN(std::vector<ViewRowOp> ins_dv,
                       ConsolidateViewOps(ins_dv_per_op));
  stats_.delta_v += ins_dv.size();
  if (!ins_dv.empty()) {
    // The symbolic work cap is sized for one op; a batch gets the same
    // total budget the ops would have had sequentially.
    InsertOptions ins_options = options_.insert;
    ins_options.max_symbolic_candidates *= plans.size();
    if (ins_options.deadline.infinite()) {
      ins_options.deadline = ctx->deadline;
    }
    XVU_ASSIGN_OR_RETURN(
        InsertTranslation tr,
        TranslateGroupInsertion(store_, db_, ins_dv, ins_options, pool()));
    stats_.used_sat = tr.used_sat;
    stats_.sat_propagations = tr.sat_stats.propagations;
    stats_.sat_conflicts = tr.sat_stats.conflicts;
    stats_.sat_learned_clauses = tr.sat_stats.learned_clauses;
    stats_.sat_flips = tr.sat_stats.flips;
    stats_.sat_winner_lane = tr.sat_winner_lane;
    stats_.sat_seconds = tr.sat_seconds;
    stats_.symbolic_tasks = tr.num_tasks;
    stats_.symbolic_candidates = tr.num_candidates;
    dr.ops.insert(dr.ops.end(), tr.delta_r.ops.begin(), tr.delta_r.ops.end());
  }
  stats_.delta_r = dr.ops.size();
  end_phase("batch.phase.translate", "delta_r", dr.ops.size());
  XVU_RETURN_NOT_OK(CheckRelationalConflicts(dr, db_));
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "batch: translated"));
  XVU_FAIL_POINT(failpoints::kBatchAfterTranslate);

  // ---- Phase 4: apply — ∆R in one pass, then the view-side changes.
  // Every mutation from here on is recorded in `ctx` (or lands in the ∆V
  // journal, which RollbackWrite rewinds), so a failure at ANY point —
  // including an injected one — just returns: the ApplyBatch wrapper
  // restores the pre-batch state bit-identically.
  XVU_RETURN_NOT_OK(ApplyDeltaRTracked(dr, &ctx->undo));

  // 4a: deletes — drop the selected edges and their witness rows.
  for (const auto& [u, v] : del_edges) {
    XVU_RETURN_NOT_OK(dag_.RemoveEdge(u, v));
  }
  for (const ViewRowOp& op : del_dv) {
    XVU_FAIL_POINT(failpoints::kBatchApplyDelete);
    XVU_RETURN_NOT_OK(store_.RemoveEdgeRow(op.view_name, op.row));
    ctx->removed_rows.push_back(op);
  }

  // 4b: inserts — publish each distinct subtree once, connect all targets.
  Publisher pub(&atg_, &db_);
  std::map<std::pair<std::string, std::string>, NodeId> roots;
  for (const InsertPlan& plan : plans) {
    const XmlUpdate& op = ops[plan.op_index];
    auto root_key = std::make_pair(op.elem_type, TupleToString(op.attr));
    auto rit = roots.find(root_key);
    NodeId root;
    if (rit != roots.end()) {
      root = rit->second;
    } else {
      XVU_ASSIGN_OR_RETURN(
          Publisher::SubtreeResult sub,
          pub.PublishSubtree(op.elem_type, op.attr, &dag_, &store_));
      const bool cyclic = sub.cyclic;
      stats_.subtree_edges += sub.new_edges.size();
      root = sub.root;
      ctx->published.push_back(std::move(sub));
      if (cyclic) {
        return Status::Rejected("subtree of " +
                                OpLabel(plan.op_index, op) +
                                " makes the view cyclic");
      }
      XVU_FAIL_POINT(failpoints::kBatchApplyPublish);
      roots.emplace(root_key, root);
    }
    // Cycle guard against the live DAG: it already contains every earlier
    // mutation of this batch, so cycles formed by op *combinations* (which
    // no snapshot check can see) are caught here.
    std::vector<NodeId> cone = CollectDescOrSelf(dag_, {root});
    std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
    for (NodeId u : evals[plan.op_index]->selected) {
      if (cone_set.count(u) > 0) {
        return Status::Rejected("inserting (" + op.elem_type +
                                ", ...) in " + OpLabel(plan.op_index, op) +
                                " would make the view cyclic");
      }
    }
    const std::vector<NodeId>& targets = evals[plan.op_index]->selected;
    for (size_t k = 0; k < targets.size(); ++k) {
      (void)dag_.AddEdge(targets[k], root);
      // Fix the child_id placeholder and materialize the witness row.
      Tuple row = plan.dv[k].row;
      row[1] = Value::Int(static_cast<int64_t>(root));
      XVU_FAIL_POINT(failpoints::kBatchApplyConnect);
      XVU_RETURN_NOT_OK(store_.AddEdgeRow(plan.dv[k].view_name, row));
      ctx->added_rows.push_back(
          ViewRowOp{plan.dv[k].view_name, std::move(row)});
    }
  }
  auto t2 = Clock::now();
  stats_.translate_seconds = Seconds(t1, t2);
  end_phase("batch.phase.apply", "delta_v", stats_.delta_v);
  XVU_RETURN_NOT_OK(CheckDeadline(ctx->deadline, "batch: applied"));

  // ---- Phase 5: one deferred maintenance pass for the whole batch. The
  // engine consumes the ∆V journal the mutations above produced and picks
  // incremental merge vs full rebuild per the cost model (or the forced
  // strategy from Options). A failure here (unreachable if the cycle
  // guards above are correct, but reachable through fault injection)
  // rolls the WHOLE batch back — including the already-applied ∆R — via
  // the wrapper; maintenance's own garbage collection is journaled, so
  // the rewind undoes it along with the batch's mutations.
  ctx->maintenance_started = true;
  XVU_FAIL_POINT(failpoints::kBatchBeforeMaintain);
  MaintenanceEngine::BatchOptions maintain_options;
  maintain_options.strategy = options_.maintenance;
  MaintenanceEngine::BatchReport report;
  XVU_RETURN_NOT_OK(engine_.MaintainBatch(&dag_, maintain_options, &report));
  XVU_FAIL_POINT(failpoints::kBatchMaintain);
  stats_.maintenance_passes = 1;
  stats_.maintenance_strategy = report.used;
  stats_.journal_entries_replayed = report.journal_entries_replayed;
  XVU_RETURN_NOT_OK(ReclaimCollected(report.delta, ctx));
  stats_.maintain_seconds = Seconds(t2, Clock::now());
  end_phase("batch.phase.maintain", "journal_entries",
            report.journal_entries_replayed);
  return Status::OK();
}

}  // namespace xvu
