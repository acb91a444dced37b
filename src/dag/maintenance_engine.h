#ifndef XVU_DAG_MAINTENANCE_ENGINE_H_
#define XVU_DAG_MAINTENANCE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/journal.h"
#include "src/dag/maintenance.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// How a write's auxiliary-structure maintenance is performed.
enum class MaintenanceStrategy {
  /// Pick per write by the cost model on |journal| vs |V|.
  kAuto,
  /// Replay the ∆V journal through a generalized multi-op ∆(M,L) merge
  /// (Fig.7/8 steps consolidated over the whole window), emitting true
  /// m_inserted/m_deleted deltas.
  kIncrementalMerge,
  /// Garbage-collect + rebuild L (Kahn) and M (Algorithm Reach) wholesale.
  kFullRebuild,
};

const char* MaintenanceStrategyName(MaintenanceStrategy s);

/// Owner of the auxiliary structures M (reachability) and L (topological
/// order) of Section 3.1, and the one entry point that keeps them in sync
/// with the DAG: every write — a batch, a statement (a batch of one op)
/// and each base op of a relational update — changes M and L only through
/// MaintainBatch. Rebuild serves Initialize and rollback.
///
/// The engine tracks the DAG version its structures are valid for
/// (`maintained_version`). A write's mutations land in the DagView's ∆V
/// journal; MaintainBatch then either replays `JournalSince(
/// maintained_version)` incrementally — the paper's per-update Fig.7/8
/// maintenance is the one-update case of this merge — or rebuilds
/// wholesale, per strategy. Both leave L equal to TopoOrder::Compute of
/// the DAG, so the Rebuild in rollback restores the pre-op L exactly.
/// Each replay is driven purely by its journal window, so it is a
/// self-contained unit of work; today it always runs synchronously in the
/// update pipeline, and after a committed write the cursor, the DAG
/// version, and the published MVCC read epoch (UpdateSystem::read_epoch,
/// docs/architecture.md §MVCC snapshots) all coincide — snapshot states
/// copy M and L at acquisition, relying on exactly that invariant.
/// Executing the replay on a background worker behind the cursor is
/// designed but not implemented — ROADMAP "Async maintenance service"
/// tracks it; the cursor would then trail the epoch instead of equaling
/// it.
class MaintenanceEngine {
 public:
  struct BatchOptions {
    MaintenanceStrategy strategy = MaintenanceStrategy::kAuto;
    /// kAuto cost model: incremental merge is chosen when the journal
    /// window is covered and its length is at most
    /// max(floor, ratio · |V|); beyond that the affected region approaches
    /// the whole view and the wholesale rebuild's better constants win.
    double incremental_journal_ratio = 0.25;
    size_t incremental_journal_floor = 64;
  };

  struct BatchReport {
    MaintenanceStrategy used = MaintenanceStrategy::kFullRebuild;
    size_t journal_entries_replayed = 0;
    MaintenanceDelta delta;
  };

  /// Recomputes L and M from scratch and syncs the journal cursor.
  Status Rebuild(const DagView& dag);

  const TopoOrder& topo() const { return topo_; }
  const Reachability& reach() const { return reach_; }
  /// DAG version the structures are currently valid for.
  uint64_t maintained_version() const { return maintained_version_; }

  /// One write's maintenance: garbage-collects unreachable nodes and
  /// brings M and L to dag->version(), choosing the strategy per
  /// `options`. Both strategies produce identical M, L (bit-identical: the
  /// incremental path re-derives L with the same Kahn pass over the
  /// cleaned DAG) and view; the incremental path additionally fills the
  /// report delta's m_inserted/m_deleted with the true ∆M pairs.
  ///
  /// A forced kIncrementalMerge silently degrades to kFullRebuild when the
  /// journal window is not covered (report->used tells the truth).
  Status MaintainBatch(DagView* dag, const BatchOptions& options,
                       BatchReport* report);

 private:
  /// MaintainBatch's body; the public wrapper adds the trace span and the
  /// per-strategy registry counters.
  Status MaintainBatchImpl(DagView* dag, const BatchOptions& options,
                           BatchReport* report);

  /// The generalized multi-op ∆(M,L) merge. Consolidates the journal into
  /// its net structural effect, garbage-collects the window's candidates,
  /// recomputes ancestor sets over the affected region only (new-DAG
  /// desc-or-self of the changed edges' child endpoints and new nodes),
  /// and re-derives L linearly.
  Status IncrementalMerge(DagView* dag, const std::vector<DagDelta>& journal,
                          MaintenanceDelta* delta);

  /// The kFullRebuild path: garbage-collects every node no longer
  /// reachable from the root (reported in `delta` as orphan_edges and
  /// removed_nodes), then rebuilds L (Kahn) and M (Algorithm Reach, Fig.4)
  /// over the cleaned DAG. m_inserted/m_deleted stay empty: M is replaced
  /// wholesale.
  Status FullRebuild(DagView* dag, MaintenanceDelta* delta);

  TopoOrder topo_;
  Reachability reach_;
  uint64_t maintained_version_ = 0;
};

}  // namespace xvu

#endif  // XVU_DAG_MAINTENANCE_ENGINE_H_
