#ifndef XVU_CORE_SYSTEM_H_
#define XVU_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/atg/atg.h"
#include "src/atg/publisher.h"
#include "src/common/deadline.h"
#include "src/common/thread_pool.h"
#include "src/core/evaluator.h"
#include "src/core/pipeline.h"
#include "src/core/snapshot.h"
#include "src/core/update.h"
#include "src/dag/maintenance.h"
#include "src/dag/maintenance_engine.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "src/obs/obs.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/insert.h"

namespace xvu {

/// What to do when an update touches shared subtrees outside r[[p]]
/// (Section 2.1): abort and report, or carry on under the revised
/// semantics (the update applies to every occurrence of the shared
/// subtree, which the DAG realizes structurally).
enum class SideEffectPolicy { kAbort, kProceed };

/// Per-update timing and size statistics, matching the breakdown reported
/// in Fig.11: (a) XPath evaluation, (b) translation ∆X→∆V→∆R plus update
/// execution, (c) auxiliary-structure maintenance. This struct is the
/// *last-op* view and dies with the next call; the cumulative view across
/// a workload — counters, and latency distributions with p50/p95/p99 —
/// lives in the process-wide obs::MetricsRegistry (src/obs/metrics.h, see
/// docs/observability.md for the metric catalogue).
struct UpdateStats {
  double xpath_seconds = 0;
  double translate_seconds = 0;
  double maintain_seconds = 0;
  size_t selected = 0;       ///< |r[[p]]|
  size_t parent_edges = 0;   ///< |Ep(r)|
  size_t delta_v = 0;        ///< view rows touched
  size_t delta_r = 0;        ///< base tuples touched
  size_t subtree_edges = 0;  ///< |E_A| for insertions
  bool had_side_effects = false;
  bool used_sat = false;

  /// Batched-pipeline counters. ApplyBatch fills them for the whole batch;
  /// a statement runs as a batch of one op and reports that batch's
  /// counters (batch_ops = maintenance_passes = 1; xpath_evaluations is 1
  /// unless the shared eval cache served the path), so callers can
  /// compare the two uniformly.
  /// dag().version() the op/batch evaluated against (the pre-write read
  /// epoch). After a successful write the maintenance cursor and the
  /// published read epoch both land on the new dag().version(), strictly
  /// past this value; pipeline_test asserts the invariant.
  uint64_t snapshot_version = 0;

  size_t batch_ops = 0;          ///< ops in this unit of work
  size_t distinct_paths = 0;     ///< distinct normal-form path keys
  size_t xpath_evaluations = 0;  ///< actual evaluator runs (cache misses)
  size_t xpath_cache_hits = 0;   ///< evaluations served from PathEvalCache
  size_t maintenance_passes = 0;

  /// Journal/engine counters. `maintenance_strategy` is what the engine
  /// actually ran for this write (statements included);
  /// `journal_entries_replayed` is the ∆V window length the merge
  /// consumed. `delta_patches` counts cached XPath node-sets brought
  /// forward across DAG versions by journal patching, and
  /// `fallback_evals` the stale entries where patching was not applicable
  /// and a fresh evaluation ran instead.
  MaintenanceStrategy maintenance_strategy = MaintenanceStrategy::kAuto;
  size_t journal_entries_replayed = 0;
  size_t delta_patches = 0;
  size_t fallback_evals = 0;

  /// Parallel-pipeline counters. `workers` is the lane count ApplyBatch
  /// ran with (Options::worker_threads); `parallel_eval_tasks` the
  /// distinct-path evaluations fanned out in Phase 1 (= cache misses) and
  /// `symbolic_tasks` the independent side-effect passes of the insert
  /// translation. `symbolic_candidates` counts the symbolic join work
  /// items examined — near-linear in |∆V|, because the template slot
  /// index narrows the new templates each join step tries; `dedup_ops`
  /// the ops that shared an already-seen normal-form key this batch (each
  /// cost zero additional cache probes).
  size_t workers = 1;
  size_t parallel_eval_tasks = 0;
  size_t symbolic_tasks = 0;
  size_t symbolic_candidates = 0;
  size_t dedup_ops = 0;

  /// SAT-portfolio counters (all zero when used_sat is false). Aggregated
  /// over every lane the insert translation's solver ran:
  /// `sat_propagations`/`sat_conflicts`/`sat_learned_clauses` from the
  /// CDCL lane, `sat_flips` from the WalkSAT lanes. `sat_winner_lane` is
  /// the portfolio's fixed-priority winner (0..K-1 = WalkSAT lane, K =
  /// CDCL lane, -1 = none) and `sat_seconds` the solver wall time inside
  /// translate_seconds.
  size_t sat_propagations = 0;
  size_t sat_conflicts = 0;
  size_t sat_learned_clauses = 0;
  size_t sat_flips = 0;
  int sat_winner_lane = -1;
  double sat_seconds = 0;

  double total_seconds() const {
    return xpath_seconds + translate_seconds + maintain_seconds;
  }
};

/// The end-to-end XML view update processor of Fig.3.
///
/// Owns the published state: the base database I, the DAG compression of
/// σ(I), its relational coding V_σ (ViewStore), and the auxiliary
/// structures L and M. Each update runs the pipeline
///   DTD validation → XPath evaluation + side-effect detection →
///   ∆X→∆V translation → ∆V→∆R translation → apply → incremental
///   maintenance + garbage collection,
/// rejecting as early as possible and leaving all state untouched on
/// rejection.
class UpdateSystem {
 public:
  struct Options {
    SideEffectPolicy side_effects = SideEffectPolicy::kProceed;
    InsertOptions insert;
    /// Use the minimal-deletion solver instead of Algorithm delete's
    /// arbitrary pick (Section 4.2 "Minimal Deletions").
    bool minimal_deletions = false;
    /// Maintenance strategy of every write (batches, statements and each
    /// base op of a relational update): kAuto picks incremental merge vs
    /// full rebuild per write by the |journal| vs |V| cost model; the
    /// explicit values force one path (benchmarks, tests).
    MaintenanceStrategy maintenance = MaintenanceStrategy::kAuto;
    /// Worker lanes for the write path's read-only phases (the per-
    /// distinct-path XPath evaluations of Phase 1 and the symbolic side-
    /// effect passes of the insert translation), statements included.
    /// 1 = fully serial, no threads spawned. Results are bit-identical
    /// for every value: all parallel work reads one immutable snapshot,
    /// writes per-task slots, and is merged in serial order.
    size_t worker_threads = 1;
    /// Wall-clock budget per ApplyInsert/ApplyDelete/ApplyBatch call;
    /// 0 = unbounded. On expiry the op rejects with kDeadlineExceeded
    /// after a full rollback (never partial state); the deadline is also
    /// threaded into the SAT portfolio and the branch-and-bound cover,
    /// whose anytime search degrades to its incumbent instead.
    double op_timeout_seconds = 0;
    /// Observability switches, applied process-wide at Create/Initialize
    /// (the metrics registry and trace rings are process singletons, like
    /// the fail-point registry). Metrics on by default; tracing opt-in.
    obs::ObsConfig obs;
  };

  /// Publishes σ(db) and builds all auxiliary structures.
  static Result<std::unique_ptr<UpdateSystem>> Create(Atg atg, Database db,
                                                      Options options);
  static Result<std::unique_ptr<UpdateSystem>> Create(Atg atg, Database db);

  /// Applies `insert (elem_type, attr) into p` as a batch of one op (see
  /// ApplyBatch; rejections name the op as `op #0 (...)`). Unlike a batch,
  /// a statement does not store its fresh evaluation in eval_cache().
  Status ApplyInsert(const std::string& elem_type, const Tuple& attr,
                     const Path& p);
  /// Applies `delete p`, likewise as a batch of one op.
  Status ApplyDelete(const Path& p);
  /// Parses and applies a textual update statement.
  Status ApplyStatement(const std::string& stmt);

  /// Applies a whole batch atomically under snapshot semantics (see
  /// UpdateBatch): one shared XPath evaluation per distinct normalized
  /// path, one consolidated ∆V → ∆R translation, one ∆R application, and
  /// one deferred maintenance pass — instead of N statements, each paying
  /// all four. Rejected (leaving all state untouched) on any per-op
  /// validation failure or intra-batch conflict. Implemented in
  /// core/pipeline.cc.
  Status ApplyBatch(const UpdateBatch& batch);

  /// Memoized XPath evaluations shared by batched updates.
  const PathEvalCache& eval_cache() const { return eval_cache_; }
  void ClearEvalCache() { eval_cache_.Clear(); }

  /// Propagates a *relational* group update into the maintained view —
  /// the incremental-publishing direction ([8] in the paper; Fig.3's
  /// maintenance of V after ∆R). Each base insertion contributes exactly
  /// the delta-join rows that use it (new edges and, transitively, new
  /// subtrees); each deletion removes the witness rows that used the
  /// tuple. After each base op, M and L follow through
  /// MaintenanceEngine::MaintainBatch, which garbage-collects unreferenced
  /// edges and nodes, and ReclaimCollected drops their coding rows. Ops
  /// apply one at a time, failing fast; an insertion that would make the
  /// view cyclic is rejected, its tuple undone and the view resynced.
  Status ApplyRelationalUpdate(const RelationalUpdate& dr);

  /// Read-only XPath query over the view. Unsynchronized: sees the live
  /// state and must not run concurrently with writers — concurrent
  /// readers use AcquireSnapshot instead.
  Result<EvalResult> Query(const Path& p) const;
  Result<EvalResult> Query(const std::string& xpath) const;

  /// MVCC reads. Pins the current read epoch and returns a handle whose
  /// Eval sees exactly that version, from any thread, without taking a
  /// system lock: the handle owns an immutable shared copy of the
  /// epoch's state, so a writer never waits on an evaluation.
  /// Acquisition itself holds `commit_mu_`, so it waits out a writer
  /// batch in progress. The first acquire after a commit copies the DAG
  /// and M into a new shared state (about 17–21 ms at |C| = 5000 — 22.7k
  /// nodes, 240k M pairs — on a 4-vCPU VM); later acquires of the same
  /// epoch reuse it. The state's eval memo is carried across epochs by
  /// ∆V-journal patching. Writers retire an epoch's journal window only
  /// once no snapshot pins it (EpochRegistry → DagJournal retain floor).
  Snapshot AcquireSnapshot();

  /// The published read epoch: dag().version() as of the last committed
  /// write. Monotone except across Initialize() resyncs, which restart
  /// the version counter (and drop the published snapshot state).
  uint64_t read_epoch() const {
    return read_epoch_.load(std::memory_order_acquire);
  }

  /// Live pinned-snapshot count (test/diagnostic surface).
  const EpochRegistry& epoch_registry() const { return *epochs_; }

  const Database& database() const { return db_; }
  const DagView& dag() const { return dag_; }
  const ViewStore& store() const { return store_; }
  const TopoOrder& topo() const { return engine_.topo(); }
  const Reachability& reachability() const { return engine_.reach(); }
  /// The maintenance engine owning M and L (strategy selection, journal
  /// cursor).
  const MaintenanceEngine& maintenance_engine() const { return engine_; }
  const Atg& atg() const { return atg_; }

  /// Statistics of the most recent (accepted or rejected) update.
  const UpdateStats& last_stats() const { return stats_; }

  /// Republishes σ(I) from scratch — the oracle used by tests to check
  /// that incremental maintenance matches recomputation.
  Result<DagView> Republish() const;

  /// Deterministic serialization of the complete system state: base
  /// tables and view-store tables (rows canonically sorted — physical
  /// slot order is not restorable across a delete/re-insert rollback),
  /// the DAG per node id (liveness, label, exact child order and
  /// parent-vector layout), root, version, L, M (sorted pairs), the
  /// maintenance cursor, the ∆V journal tail, and the eval-cache
  /// fingerprint. The fault-injection fuzz compares this after an
  /// injected fault against the pre-op state, and between a retry and a
  /// never-faulted run. `strict` = false relaxes the two layout details
  /// that legitimately differ across an absorbed (degraded-but-
  /// successful) fault, where garbage collection completes in a
  /// different order: parent vectors compare as sorted sets (swap-erase
  /// layout is order-dependent) and the journal tail is dropped. Child
  /// order — document order — stays exact in both modes.
  std::string DebugFingerprint(bool strict = true) const;

 private:
  UpdateSystem(Atg atg, Database db, Options options)
      : atg_(std::move(atg)), db_(std::move(db)), options_(options) {}

  Status Initialize();

  /// Everything a failed write needs to restore the pre-op state
  /// exactly. Filled incrementally as the op applies; consumed by
  /// RollbackWrite. The DAG side is not tracked here — RollbackWrite
  /// rewinds it structurally through the ∆V journal
  /// (DagView::RewindTo), which also restores the node-id allocator,
  /// the version counter, and the journal tail.
  struct WriteUndo {
    uint64_t snapshot_version = 0;  ///< dag_.version() before the op
    Deadline deadline;              ///< per-op budget (infinite when unset)
    std::vector<TableOp> undo;      ///< applied ∆R, for Rollback()
    std::vector<ViewRowOp> removed_rows;  ///< witness rows dropped (4a)
    std::vector<Publisher::SubtreeResult> published;  ///< subtrees (4b)
    std::vector<ViewRowOp> added_rows;  ///< witness rows materialized (4b)
    /// Rows reclaimed after GC (phase 5): edge-view witness rows and
    /// (gen-table type, node id, attr) gen rows.
    std::vector<ViewRowOp> reclaimed_edge_rows;
    std::vector<std::tuple<std::string, int64_t, Tuple>> reclaimed_gen_rows;
    /// True once the maintenance engine may have touched M/L or its
    /// cursor; rollback then rebuilds them for the rewound DAG.
    bool maintenance_started = false;
  };

  /// Applies ∆R recording the ops that actually changed the database, so
  /// a later rejection can roll back precisely.
  Status ApplyDeltaRTracked(const RelationalUpdate& dr,
                            std::vector<TableOp>* undo);
  void Rollback(const std::vector<TableOp>& undo);

  /// Restores the pre-op state after a failed write: store rows first
  /// (newest phase first — reclaim, materialized rows, published
  /// subtrees, dropped rows — while tombstoned node labels are still
  /// readable), then the base ∆R, then the DAG via RewindTo, then M/L
  /// if maintenance had started. Falls back to a full resync
  /// (Initialize) when the journal window needed for the rewind was
  /// evicted; returns that resync's status (OK on the normal path).
  Status RollbackWrite(const WriteUndo& ctx);

  /// The one write path (core/pipeline.cc). ApplyBatch, ApplyInsert and
  /// ApplyDelete call it, the statements as batches of one op: it takes
  /// the writer lock, runs ApplyBatchImpl under the eval-cache scope,
  /// rolls back through RollbackWrite on failure, publishes the epoch and
  /// records `xvu.op.<kind>.*` and the `xvu.batch.*` counters.
  Status ApplyWrite(const UpdateBatch& batch, const char* kind,
                    bool store_fresh_evals);

  /// The pipeline body. Fills `ctx` as it mutates and returns on the first
  /// failure, leaving the cleanup to ApplyWrite. `store_fresh_evals`:
  /// whether fresh evaluator runs are stored in the eval cache (batches)
  /// or kept local to the call (statements).
  Status ApplyBatchImpl(const UpdateBatch& batch, bool store_fresh_evals,
                        WriteUndo* ctx);

  /// Removes the witness rows and gen rows of a subtree publication but
  /// leaves the DAG alone — used by RollbackWrite, where
  /// DagView::RewindTo undoes the structure.
  void UnpublishSubtreeRows(const Publisher::SubtreeResult& st);

  /// Reclaims the relational coding of garbage-collected parts: witness
  /// rows of orphan edges, then gen rows of removed nodes (Fig.8's ∆'V).
  /// Records every removed row in `ctx` (when non-null) so a fault mid-
  /// reclaim can restore them.
  Status ReclaimCollected(const MaintenanceDelta& delta, WriteUndo* ctx);

  /// ApplyRelationalUpdate's body; the public wrapper adds the writer
  /// lock and epoch publication.
  Status ApplyRelationalUpdateImpl(const RelationalUpdate& dr);

  /// Folds the finished op's outcome and Fig.11 phase breakdown from
  /// `stats_` into the cumulative registry view (`xvu.op.<kind>.*`).
  /// `kind` is "insert", "delete", or "batch".
  void RecordOpMetrics(const char* kind, const Status& st);

  /// Propagates one already-applied base insertion / deletion into the
  /// view (core/propagate.cc).
  Status PropagateBaseInsert(const std::string& table, const Tuple& row);
  Status PropagateBaseDelete(const std::string& table, const Tuple& row);

  /// Publishes dag_.version() as the read epoch and refreshes the ∆V
  /// journal's retain floor from the oldest pinned epoch (and the cached
  /// published state, whose window the next carry-forward needs). Called
  /// at the end of every write path — success or rollback — and on
  /// snapshot-state rebuilds; commit_mu_ must be held.
  void PublishEpoch();

  /// The pool backing ApplyBatch's parallel phases; null when
  /// options_.worker_threads <= 1 (fully serial).
  ThreadPool* pool() { return pool_.get(); }

  Atg atg_;
  Database db_;
  Options options_;
  ViewStore store_;
  DagView dag_;
  MaintenanceEngine engine_;
  UpdateStats stats_;
  PathEvalCache eval_cache_;
  std::unique_ptr<ThreadPool> pool_;

  /// Serializes writers with each other and with snapshot acquisition.
  /// Snapshot *reads* never take it: a pinned handle owns immutable
  /// state, so readers proceed while a writer holds this for a whole
  /// batch. Held across every Apply* entry point.
  std::mutex commit_mu_;
  std::atomic<uint64_t> read_epoch_{0};
  /// Shared with every issued Snapshot, so handles may outlive the
  /// system and the writer can see the oldest pinned epoch.
  std::shared_ptr<EpochRegistry> epochs_ = std::make_shared<EpochRegistry>();
  /// Immutable state of the current read epoch; built lazily on the
  /// first AcquireSnapshot after a write and reused until the epoch
  /// moves. Reset by Initialize() — a resync restarts the version
  /// counter, and a stale state must not alias a new epoch number.
  std::shared_ptr<const SnapshotState> published_;
};

}  // namespace xvu

#endif  // XVU_CORE_SYSTEM_H_
