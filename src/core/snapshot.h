#ifndef XVU_CORE_SNAPSHOT_H_
#define XVU_CORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/evaluator.h"
#include "src/core/pipeline.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/xpath/ast.h"

namespace xvu {

/// Immutable state of one published read epoch — everything a reader
/// needs to evaluate paths at that version without touching the live
/// system: the DAG, the maintained M, and a reader-shared memo of path
/// evaluations. Built once per epoch transition by
/// UpdateSystem::AcquireSnapshot and shared by every Snapshot pinning
/// the epoch; after publication only `cache` mutates, and PathEvalCache
/// serializes itself internally, so concurrent readers need no further
/// synchronization.
struct SnapshotState {
  uint64_t epoch = 0;
  DagView dag;
  Reachability reach;
  /// Lazily filled per-epoch eval memo. Entries are always stamped at
  /// `epoch`; on an epoch transition the survivors are carried into the
  /// next state's cache by ∆V-journal patching (AdoptPatched).
  mutable PathEvalCache cache;
};

/// Pinned-epoch bookkeeping shared between the system and every live
/// Snapshot handle. The writer reads MinPinnedOr() when publishing a new
/// epoch to set the ∆V journal's retain floor — epochs are retired (their
/// journal window released) only once no reader pins them.
///
/// Held by shared_ptr on both sides so a Snapshot may outlive the
/// UpdateSystem that issued it.
class EpochRegistry {
 public:
  void Pin(uint64_t epoch);
  void Unpin(uint64_t epoch);
  /// Smallest pinned epoch, or `fallback` when nothing is pinned.
  uint64_t MinPinnedOr(uint64_t fallback) const;
  /// Number of live pins (distinct handles, not distinct epochs).
  size_t live() const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, size_t> pins_;
};

/// A pinned read epoch. Move-only; pins its epoch in the registry for
/// its whole lifetime and evaluates XPath paths against the pinned
/// version — first from the epoch's shared eval memo, else by a fresh
/// traced evaluation of the immutable state. Never takes any
/// UpdateSystem lock: readers on their own threads proceed while writer
/// batches commit, and vice versa.
class Snapshot {
 public:
  Snapshot(std::shared_ptr<const SnapshotState> state,
           std::shared_ptr<EpochRegistry> registry);
  ~Snapshot();
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  uint64_t epoch() const { return state_->epoch; }
  const DagView& dag() const { return state_->dag; }
  const Reachability& reachability() const { return state_->reach; }
  /// The epoch's shared eval memo (hit/miss/carry-forward accounting).
  const PathEvalCache& eval_cache() const { return state_->cache; }

  /// r[[p]] at the pinned epoch. Safe to call from any number of threads
  /// on any number of handles of the same epoch concurrently.
  Result<EvalResult> Eval(const Path& p) const;
  Result<EvalResult> Eval(const std::string& xpath) const;

 private:
  std::shared_ptr<const SnapshotState> state_;
  std::shared_ptr<EpochRegistry> registry_;
};

}  // namespace xvu

#endif  // XVU_CORE_SNAPSHOT_H_
