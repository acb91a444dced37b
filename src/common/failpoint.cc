#include "src/common/failpoint.h"

#include <algorithm>
#include <mutex>
#include <random>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xvu {

std::atomic<int> FailPoints::armed_count_{0};

namespace {

struct SiteState {
  FailPoints::Trigger trigger;
  bool armed = false;  // false once a one_shot trigger has fired
  uint64_t hits = 0;
  uint64_t fires = 0;
  std::mt19937_64 rng;
};

}  // namespace

struct FailPoints::Impl {
  mutable std::mutex mu;
  std::unordered_map<std::string, SiteState> sites;
};

FailPoints::Impl& FailPoints::impl() const {
  static Impl* impl = new Impl();  // leaked: registry outlives everything
  return *impl;
}

FailPoints& FailPoints::Instance() {
  static FailPoints* instance = new FailPoints();
  return *instance;
}

void FailPoints::Arm(const std::string& site, Trigger trigger) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  SiteState& st = im.sites[site];
  st.trigger = trigger;
  st.armed = true;
  st.hits = 0;
  st.fires = 0;
  st.rng.seed(trigger.seed);
  // Recompute the global armed count: one per tracked site keeps the
  // bookkeeping trivial (Disarm decrements below).
  armed_count_.store(static_cast<int>(im.sites.size()),
                     std::memory_order_relaxed);
}

void FailPoints::ArmAllCounting() {
  Trigger count;
  count.kind = TriggerKind::kCount;
  for (const std::string& site : AllSites()) Arm(site, count);
}

void FailPoints::Disarm(const std::string& site) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.sites.erase(site);
  armed_count_.store(static_cast<int>(im.sites.size()),
                     std::memory_order_relaxed);
}

void FailPoints::DisarmAll() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.sites.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

FailPoints::SiteStats FailPoints::GetStats(const std::string& site) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.sites.find(site);
  if (it == im.sites.end()) return SiteStats{};
  return SiteStats{it->second.hits, it->second.fires};
}

std::vector<std::string> FailPoints::HitSites() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  for (const auto& [name, st] : im.sites) {
    if (st.hits > 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status FailPoints::Check(const char* site) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.sites.find(site);
  if (it == im.sites.end()) return Status::OK();
  SiteState& st = it->second;
  ++st.hits;
  // Per-site registry counters (this is already the armed slow path; the
  // dynamic-name lookup costs nothing the fault run would notice). Lets
  // fault-injection runs assert which sites were actually crossed instead
  // of relying on rollback side-effects alone.
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Instance()
        .GetCounter(std::string("xvu.failpoint.hit.") + site)
        ->Add(1);
  }
  if (!st.armed) return Status::OK();
  bool fire = false;
  switch (st.trigger.kind) {
    case TriggerKind::kAlways:
      fire = true;
      break;
    case TriggerKind::kNth:
      fire = st.hits == st.trigger.nth;
      break;
    case TriggerKind::kProbability: {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      fire = dist(st.rng) < st.trigger.probability;
      break;
    }
    case TriggerKind::kCount:
      break;
  }
  if (!fire) return Status::OK();
  ++st.fires;
  if (st.trigger.one_shot) st.armed = false;
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Instance()
        .GetCounter(std::string("xvu.failpoint.fired.") + site)
        ->Add(1);
  }
  // Site constants have static storage, so the pointer is safe to hand
  // to the trace ring directly.
  obs::TraceInstant("failpoint.fired", nullptr, 0, "site", site);
  return Status(st.trigger.code,
                std::string("injected fault at ") + site);
}

const std::vector<std::string>& FailPoints::AllSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      failpoints::kBatchAfterEval,
      failpoints::kBatchAfterConflicts,
      failpoints::kBatchAfterTranslate,
      failpoints::kBatchApplyDelete,
      failpoints::kBatchApplyPublish,
      failpoints::kBatchApplyConnect,
      failpoints::kBatchBeforeMaintain,
      failpoints::kBatchMaintain,
      failpoints::kBatchReclaim,
      failpoints::kJournalAppend,
      failpoints::kMaintainMerge,
      failpoints::kThreadPoolSpawn,
      failpoints::kPortfolioSpawn,
      failpoints::kStorageWrite,
      failpoints::kStorageRename,
      failpoints::kStorageLoad,
  };
  return *sites;
}

}  // namespace xvu
