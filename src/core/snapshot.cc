#include "src/core/snapshot.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/xpath/normal_form.h"
#include "src/xpath/parser.h"

namespace xvu {

void EpochRegistry::Pin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[epoch];
  XVU_OBS_GAUGE_ADD("xvu.snapshot.pinned", 1);
}

void EpochRegistry::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(epoch);
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
  XVU_OBS_GAUGE_ADD("xvu.snapshot.pinned", -1);
}

uint64_t EpochRegistry::MinPinnedOr(uint64_t fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.empty() ? fallback : pins_.begin()->first;
}

size_t EpochRegistry::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [epoch, count] : pins_) {
    (void)epoch;
    n += count;
  }
  return n;
}

Snapshot::Snapshot(std::shared_ptr<const SnapshotState> state,
                   std::shared_ptr<EpochRegistry> registry)
    : state_(std::move(state)), registry_(std::move(registry)) {
  if (registry_ != nullptr) registry_->Pin(state_->epoch);
}

Snapshot::~Snapshot() {
  if (registry_ != nullptr && state_ != nullptr) {
    registry_->Unpin(state_->epoch);
  }
}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : state_(std::move(other.state_)), registry_(std::move(other.registry_)) {
  other.state_.reset();
  other.registry_.reset();
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this == &other) return *this;
  if (registry_ != nullptr && state_ != nullptr) {
    registry_->Unpin(state_->epoch);
  }
  state_ = std::move(other.state_);
  registry_ = std::move(other.registry_);
  other.state_.reset();
  other.registry_.reset();
  return *this;
}

Result<EvalResult> Snapshot::Eval(const Path& p) const {
  obs::TraceSpan span("snapshot.eval");
  span.Arg("epoch", state_->epoch);
  XVU_OBS_LATENCY(lat, "xvu.snapshot.eval.ns");
  const std::string key = NormalFormKey(p);
  EvalResult out;
  // Copying lookup: a racing Store on the same key (two readers missing
  // together) must not mutate an entry mid-read.
  if (state_->cache.LookupCopy(key, state_->epoch, &out)) {
    XVU_OBS_COUNT("xvu.snapshot.eval.memo_hits", 1);
    return out;
  }
  XVU_OBS_COUNT("xvu.snapshot.eval.memo_misses", 1);
  XPathEvaluator ev(&state_->dag, &state_->reach);
  XVU_ASSIGN_OR_RETURN(CachedEval fresh, ev.EvaluateTraced(p));
  out = fresh.result;
  // Both racers evaluated the same immutable state, so either store
  // winning leaves identical contents.
  state_->cache.Store(key, state_->epoch, std::move(fresh));
  return out;
}

Result<EvalResult> Snapshot::Eval(const std::string& xpath) const {
  XVU_ASSIGN_OR_RETURN(Path p, ParseXPath(xpath));
  return Eval(p);
}

}  // namespace xvu
