#ifndef XVU_COMMON_FAILPOINT_H_
#define XVU_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace xvu {

/// Deterministic fault-injection registry in the RocksDB/LevelDB
/// fail-point style. Code plants named sites with XVU_FAIL_POINT /
/// XVU_FAIL_POINT_HIT; tests arm them with a trigger (fail on the Nth
/// hit, probabilistically with a fixed-seed RNG, on every hit, or
/// count-only) and assert the failure is handled.
///
/// Cost when nothing is armed: the macros compile to one relaxed
/// atomic load of a global counter plus a predictable not-taken
/// branch — no lock, no map lookup, no string hashing. Everything
/// else (site lookup, hit counting, RNG) happens only while at least
/// one trigger is armed, which is a test-only situation. The registry
/// is process-global and thread-safe.
class FailPoints {
 public:
  enum class TriggerKind {
    /// Fire on every hit (until one_shot disarms it).
    kAlways,
    /// Fire on the Nth hit of the site (1-based), once.
    kNth,
    /// Fire on each hit with probability p, using a fixed-seed
    /// deterministic RNG owned by the site.
    kProbability,
    /// Never fire, but count hits — used to discover how many times a
    /// site runs (e.g. to size an Nth sweep, or to measure check
    /// overhead per batch).
    kCount,
  };

  struct Trigger {
    TriggerKind kind = TriggerKind::kCount;
    /// kNth: the 1-based hit index that fires.
    uint64_t nth = 1;
    /// kProbability: chance in [0,1] per hit.
    double probability = 0.0;
    /// kProbability: RNG seed, fixed for reproducibility.
    uint64_t seed = 0x9e3779b97f4a7c15ull;
    /// Disarm the site after its first firing.
    bool one_shot = true;
    /// Code the injected Status carries.
    StatusCode code = StatusCode::kInternal;
  };

  /// Per-site counters, readable while armed or after DisarmAll.
  struct SiteStats {
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  static FailPoints& Instance();

  /// Arms `site` with `trigger`. Resets the site's counters.
  void Arm(const std::string& site, Trigger trigger);

  /// Arms every registered site name in count-only mode so HitCount
  /// observes all sites of a run (discovery mode for Nth sweeps).
  void ArmAllCounting();

  void Disarm(const std::string& site);
  /// Disarms everything and drops the fast path back to free.
  void DisarmAll();

  /// Counters for `site` (zeros if never armed since last DisarmAll).
  SiteStats GetStats(const std::string& site) const;
  uint64_t HitCount(const std::string& site) const {
    return GetStats(site).hits;
  }
  uint64_t FireCount(const std::string& site) const {
    return GetStats(site).fires;
  }

  /// All site names that recorded at least one hit since DisarmAll.
  std::vector<std::string> HitSites() const;

  /// True when at least one trigger is armed. This is the whole fast
  /// path: a relaxed load of an int armed-count.
  static bool Armed() {
    return armed_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Slow path behind Armed(): counts the hit and evaluates the
  /// site's trigger. Returns non-OK when the fault fires.
  Status Check(const char* site);

  /// The compiled-in site-name catalogue (kept in failpoint.cc next to
  /// the constants). Tests iterate this to fuzz every site; sites are
  /// added here when planted.
  static const std::vector<std::string>& AllSites();

 private:
  FailPoints() = default;
  struct Impl;
  Impl& impl() const;

  static std::atomic<int> armed_count_;
};

/// Compiled-in injection site names. Grouped by subsystem; each name
/// appears in FailPoints::AllSites() and docs/robustness.md.
namespace failpoints {
// Write-path phase boundaries (pipeline.cc): every batch and every
// statement, which runs as a batch of one op.
inline constexpr char kBatchAfterEval[] = "batch.after_eval";
inline constexpr char kBatchAfterConflicts[] = "batch.after_conflicts";
inline constexpr char kBatchAfterTranslate[] = "batch.after_translate";
inline constexpr char kBatchApplyDelete[] = "batch.apply.delete";
inline constexpr char kBatchApplyPublish[] = "batch.apply.publish";
inline constexpr char kBatchApplyConnect[] = "batch.apply.connect";
inline constexpr char kBatchBeforeMaintain[] = "batch.before_maintain";
inline constexpr char kBatchMaintain[] = "batch.maintain";
inline constexpr char kBatchReclaim[] = "batch.reclaim";
// Journal append boundary: the status-returning wrapper around the ∆V
// mutation that records a delta (maintenance_engine.cc GC loop).
inline constexpr char kJournalAppend[] = "journal.append";
// Maintenance engine internals (maintenance_engine.cc).
inline constexpr char kMaintainMerge[] = "maintain.merge";
// Thread creation (thread_pool.cc, sat/portfolio.cc). These sites use
// XVU_FAIL_POINT_HIT: firing simulates std::thread throwing.
inline constexpr char kThreadPoolSpawn[] = "thread_pool.spawn";
inline constexpr char kPortfolioSpawn[] = "portfolio.spawn";
// XVUR storage (relational/storage.cc).
inline constexpr char kStorageWrite[] = "storage.write";
inline constexpr char kStorageRename[] = "storage.rename";
inline constexpr char kStorageLoad[] = "storage.load";
}  // namespace failpoints

/// Plants a site that propagates the injected Status out of the
/// enclosing status-returning function. Disabled cost: one relaxed
/// atomic load + not-taken branch.
#define XVU_FAIL_POINT(site)                                        \
  do {                                                              \
    if (::xvu::FailPoints::Armed()) {                               \
      ::xvu::Status _fp_st = ::xvu::FailPoints::Instance().Check(site); \
      if (!_fp_st.ok()) return _fp_st;                              \
    }                                                               \
  } while (0)

/// Expression form: true when the site fires. For sites where the
/// handled failure is not a Status return (e.g. simulating a thread
/// spawn throwing).
#define XVU_FAIL_POINT_HIT(site)              \
  (::xvu::FailPoints::Armed() &&              \
   !::xvu::FailPoints::Instance().Check(site).ok())

}  // namespace xvu

#endif  // XVU_COMMON_FAILPOINT_H_
