#ifndef XVU_CORE_PIPELINE_H_
#define XVU_CORE_PIPELINE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/update.h"

namespace xvu {

/// An ordered group of XML view updates submitted as one unit of work.
///
/// A batch is applied under *snapshot semantics* (the paper's group-update
/// reading of ∆X): every op's XPath is evaluated against the same
/// pre-batch view, the per-op ∆V fragments are consolidated into a single
/// group translation, and one ∆R is applied atomically. Structural
/// overlaps between ops (the same edge deleted twice, inserts into
/// subtrees a delete tears off, duplicate rows, contradictory ∆R) are
/// rejected as intra-batch conflicts. The checks are conservative, not
/// complete: an op whose *path evaluation* depends on another op's effect
/// (e.g. inserting into nodes a sibling op creates) is still evaluated
/// against the snapshot — that is the defined semantics, and it matches
/// sequential application exactly for independent ops.
class UpdateBatch {
 public:
  /// Appends `insert (elem_type, attr) into p`.
  void Insert(std::string elem_type, Tuple attr, Path p);
  /// Appends `delete p`.
  void Delete(Path p);
  /// Parses and appends a textual update statement.
  Status Add(const std::string& stmt, const Atg& atg);

  const std::vector<XmlUpdate>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  std::vector<XmlUpdate> ops_;
};

/// Memoized XPath evaluation results, keyed on the path's normal-form key
/// (NormalFormKey), each tagged with the DagView version it is valid for.
///
/// Within a batch no state is mutated between evaluations, so every
/// repeated path is a guaranteed hit. Across batches an entry is *delta
/// maintained*: a lookup at a newer version replays the DAG's ∆V journal
/// window against the entry's forward trace (core/delta_eval.h) and, when
/// the window is patchable, brings the cached node-set forward without
/// re-evaluating. Only when patching does not apply (removals in the
/// window, negation in the path, journal window evicted) is the entry
/// dropped and re-evaluated.
///
/// Parallel batches use a *two-phase protocol*: the coordinator collects
/// all probes serially (LookupOrPatch — hits and journal patches resolve
/// here, misses are queued), the queued paths are evaluated on the worker
/// pool with no cache access at all, and the results are published in one
/// serial pass (Store, in first-occurrence order) — so worker threads
/// never touch the cache, and its contents are deterministic for any
/// worker count. The internal mutex additionally serializes the public
/// methods themselves, making stray concurrent probes safe; returned
/// pointers stay valid until their entry is evicted (entries are
/// node-based, rehashing does not move them).
class PathEvalCache {
 public:
  /// Default bound on retained entries; each traced entry's masks are
  /// O(|V| · |p|), so the cache is bounded by count, oldest version first.
  static constexpr size_t kDefaultMaxEntries = 256;

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t invalidations = 0;   ///< stale/overflow entries dropped
    size_t delta_patches = 0;   ///< entries journal-patched across versions
    size_t fallback_evals = 0;  ///< stale entries that had to re-evaluate
  };

  enum class Outcome { kHit, kPatched, kMiss, kFallback };

  /// Returns the entry for `key` at the DAG's *current* version: an exact
  /// hit, or a stale entry patched forward through JournalSince(entry
  /// version). nullptr on miss (cold, or stale-and-unpatchable — the
  /// `outcome` out-param distinguishes). `reach` must be the maintained
  /// M of the current DAG version.
  const EvalResult* LookupOrPatch(const std::string& key, const DagView& dag,
                                  const Reachability& reach,
                                  Outcome* outcome = nullptr);

  /// Returns the entry for `key` at exactly `dag_version`, or nullptr.
  /// An entry at any other version is evicted (counted as invalidation).
  const EvalResult* Lookup(const std::string& key, uint64_t dag_version);

  /// Copying variant of Lookup for concurrent snapshot readers: the
  /// result crosses the lock boundary by value, so a racing Store on the
  /// same key can never mutate an entry another reader is still copying
  /// out. Accounting matches Lookup (hit, or miss + invalidation).
  bool LookupCopy(const std::string& key, uint64_t dag_version,
                  EvalResult* out);

  /// Carries `from`'s entries forward to `dag.version()`: each traced
  /// entry whose version the journal still covers is delta-patched
  /// (TryPatchEval) and stored here at the current version; unpatchable
  /// or traceless entries are dropped (their readers lazily re-evaluate).
  /// Keys are adopted in sorted order so the rebuilt recency list — and
  /// hence eviction — is deterministic. `from` may be concurrently read
  /// and written by snapshot readers; its entries are copied out under
  /// its own lock first. Counts one delta_patch per adopted entry and
  /// one invalidation per drop.
  void AdoptPatched(const PathEvalCache& from, const DagView& dag,
                    const Reachability& reach);

  /// Stores (replacing any entry for `key`) and returns the stored result.
  /// The CachedEval overload retains the forward trace and is patchable
  /// across versions; the plain EvalResult overload only ever hits at its
  /// own version.
  const EvalResult* Store(std::string key, uint64_t dag_version,
                          CachedEval eval);
  const EvalResult* Store(std::string key, uint64_t dag_version,
                          EvalResult result);

  /// Drops oldest-version entries until at most `max_entries` remain.
  /// O(evicted): eviction order comes from the maintained recency list
  /// (append/splice-to-back on every store and patch, so the list stays
  /// sorted by version), not from a scan over all entries.
  void Compact(size_t max_entries = kDefaultMaxEntries);

  void Clear();

  /// Batch scope: between BeginScope and Commit/RollbackScope, every
  /// displaced entry (evicted by Compact, dropped as unpatchable,
  /// overwritten by Store, or patched forward in place) is preserved.
  /// RollbackScope(rewound_version) repairs the cache after the DAG was
  /// rewound to `rewound_version`: entries whose stamp still precedes the
  /// rewound version are KEPT — a batch evaluates every path against the
  /// pre-mutation snapshot, so its stores and forward patches remain
  /// valid after the rewind, and a resubmitted batch hits them — while
  /// entries stamped past the rewind point are dropped and every
  /// displaced pre-scope entry is reinstated. Only first-touch copies
  /// are taken, so the cost is one entry copy per distinct path the
  /// batch patches plus moves for entries that were being discarded
  /// anyway. CommitScope drops the records; Clear() discards an active
  /// scope (a full resync must not restore stale entries against a
  /// restarted version counter). Scopes do not nest.
  void BeginScope();
  void CommitScope();
  void RollbackScope(uint64_t rewound_version);

  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

  /// Deterministic serialization of the complete cache contents (keys,
  /// versions, results, traces), sorted by key — the bit-identity oracle
  /// used by the parallel-determinism tests.
  std::string DebugFingerprint() const;

 private:
  struct Entry {
    uint64_t version = 0;
    CachedEval eval;
    /// Position in recency_, for O(1) splice/erase.
    std::list<const std::string*>::iterator recency_it;
  };

  /// Moves an entry to the back of the recency list (newest version).
  void Touch(Entry* e);
  /// Erases one entry and its recency node.
  void EraseEntry(std::unordered_map<std::string, Entry>::iterator it);
  /// Records `key`'s pre-scope state (mu_ held): its current (version,
  /// eval) if present, absence otherwise. First touch per key wins.
  void SaveForScope(const std::string& key);

  std::unordered_map<std::string, Entry> entries_;
  /// Keys ordered oldest version first; pointers into entries_' keys
  /// (node-based, stable until erase).
  std::list<const std::string*> recency_;
  Stats stats_;
  /// Active batch scope: pre-scope (version, eval) per touched key;
  /// nullopt marks a key that did not exist at BeginScope.
  bool scope_active_ = false;
  std::unordered_map<std::string,
                     std::optional<std::pair<uint64_t, CachedEval>>>
      scope_saved_;
  mutable std::mutex mu_;
};

}  // namespace xvu

#endif  // XVU_CORE_PIPELINE_H_
