#include "src/sat/portfolio.h"

#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xvu {

namespace {

/// splitmix64 — decorrelates the per-lane seeds from the base seed.
uint64_t MixSeed(uint64_t seed, uint64_t lane) {
  uint64_t z = seed + lane * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Noise diversification for lanes >= 1 (lane 0 keeps the base noise).
constexpr double kNoiseTable[] = {0.57, 0.40, 0.65, 0.34,
                                  0.72, 0.45, 0.60, 0.50};

WalkSatOptions LaneConfig(const PortfolioOptions& opts, size_t lane) {
  WalkSatOptions w = opts.walksat;
  if (lane > 0) {
    w.seed = MixSeed(w.seed, lane);
    w.noise = kNoiseTable[(lane - 1) % (sizeof(kNoiseTable) /
                                        sizeof(kNoiseTable[0]))];
  }
  return w;
}

struct LaneOutcome {
  SatResult res;
  SatStats stats;
  bool cancelled = false;
};

bool Definitive(const SatResult& r) {
  return r.kind != SatResult::Kind::kUnknown;
}

/// One source of truth for the solver counters: benches print these
/// from the registry instead of hand-plumbed UpdateStats copies.
void AccumulateSatCounters(const SatStats& s) {
  XVU_OBS_COUNT("xvu.sat.propagations", s.propagations);
  XVU_OBS_COUNT("xvu.sat.conflicts", s.conflicts);
  XVU_OBS_COUNT("xvu.sat.decisions", s.decisions);
  XVU_OBS_COUNT("xvu.sat.learned_clauses", s.learned_clauses);
  XVU_OBS_COUNT("xvu.sat.restarts", s.restarts);
  XVU_OBS_COUNT("xvu.sat.flips", s.flips);
}

}  // namespace

void RecordSatRunMetrics(const SatStats& totals, int winner_lane) {
  if (!obs::MetricsEnabled()) return;
  XVU_OBS_COUNT("xvu.sat.runs", 1);
  AccumulateSatCounters(totals);
  XVU_OBS_GAUGE_SET("xvu.sat.winner_lane", winner_lane);
}

SatResult SolvePortfolio(const Cnf& cnf, const PortfolioOptions& options_in,
                         PortfolioStats* stats) {
  PortfolioOptions options = options_in;
  // A portfolio-level deadline caps every lane, unless a lane already
  // carries its own (assumed tighter / intentional).
  if (!options.deadline.infinite()) {
    if (options.walksat.deadline.infinite()) {
      options.walksat.deadline = options.deadline;
    }
    if (options.cdcl.deadline.infinite()) {
      options.cdcl.deadline = options.deadline;
    }
  }
  const size_t k = options.walksat_lanes;
  const int cdcl_lane = static_cast<int>(k);

  // Sequential fixed-priority solve (lane 0, then CDCL) — exactly the
  // winner rule, so this path and a threaded run agree bit-for-bit. Used
  // for tiny formulas, for lane-less configurations, and as the degraded
  // path when lane-thread creation fails.
  auto solve_inline = [&]() {
    SatStats totals;
    if (k > 0) {
      SatStats ws_stats;
      SatResult ws;
      {
        obs::TraceSpan span("sat.lane.walksat");
        span.Arg("lane", 0);
        ws = SolveWalkSat(cnf, LaneConfig(options, 0), &ws_stats);
      }
      totals.Accumulate(ws_stats);
      if (stats != nullptr) stats->totals.Accumulate(ws_stats);
      if (ws.kind == SatResult::Kind::kSat ||
          ws.kind == SatResult::Kind::kUnsat) {
        if (stats != nullptr) stats->winner_lane = 0;
        RecordSatRunMetrics(totals, 0);
        return ws;
      }
    }
    SatStats cdcl_stats;
    SatResult cd;
    {
      obs::TraceSpan span("sat.lane.cdcl");
      span.Arg("lane", static_cast<uint64_t>(cdcl_lane));
      cd = SolveCdcl(cnf, options.cdcl, &cdcl_stats);
    }
    totals.Accumulate(cdcl_stats);
    if (stats != nullptr) {
      stats->totals.Accumulate(cdcl_stats);
      if (Definitive(cd)) stats->winner_lane = cdcl_lane;
    }
    RecordSatRunMetrics(totals, Definitive(cd) ? cdcl_lane : -1);
    return cd;
  };

  // Inline fast path: tiny formulas (the insert translation's common
  // case) and lane-less configurations run sequentially.
  if (cnf.num_clauses() <= options.inline_below_clauses || k == 0) {
    if (stats != nullptr) {
      stats->lanes = k + 1;
      stats->threaded = false;
    }
    return solve_inline();
  }

  std::atomic<bool> cancel{false};
  std::atomic<bool> lane0_done{false};
  std::atomic<bool> cdcl_done{false};
  std::vector<LaneOutcome> out(k + 1);

  // Called by each lane thread right after its solver returns; `out[lane]`
  // is the thread's own slot (no cross-lane reads before the join).
  auto on_finish = [&](int lane) {
    // Winner rule: lane 0 if kSat, else CDCL. Cancellation may only
    // remove lanes whose results can no longer affect that rule:
    //  - lane 0 kSat        -> everything else is moot;
    //  - CDCL kUnsat        -> lane 0 cannot possibly find a model;
    //  - lane 0 + CDCL done -> lanes 1..K-1 were never consulted.
    if (lane == 0) {
      lane0_done.store(true);
      if (out[0].res.kind == SatResult::Kind::kSat) cancel.store(true);
    } else if (lane == cdcl_lane) {
      cdcl_done.store(true);
      if (out[static_cast<size_t>(cdcl_lane)].res.kind ==
          SatResult::Kind::kUnsat) {
        cancel.store(true);
      }
    }
    if (lane0_done.load() && cdcl_done.load()) cancel.store(true);
  };

  auto run_lane = [&](int lane) {
    LaneOutcome& o = out[static_cast<size_t>(lane)];
    // Per-lane span on the lane's own thread: a trace shows the race —
    // lanes starting together, the winner's span ending first, losers
    // ending at their next cancellation poll.
    obs::TraceSpan span(lane == cdcl_lane ? "sat.lane.cdcl"
                                          : "sat.lane.walksat");
    span.Arg("lane", static_cast<uint64_t>(lane));
    if (lane == cdcl_lane) {
      CdclOptions c = options.cdcl;
      c.cancel = &cancel;
      o.res = SolveCdcl(cnf, c, &o.stats);
    } else {
      o.res = SolveWalkSat(cnf, LaneConfig(options, static_cast<size_t>(lane)),
                           &o.stats, &cancel);
    }
    o.cancelled = o.res.kind == SatResult::Kind::kUnknown &&
                  cancel.load(std::memory_order_relaxed);
    if (o.cancelled) {
      obs::TraceInstant("sat.lane.cancelled", "lane",
                        static_cast<uint64_t>(lane));
    }
    on_finish(lane);
  };

  // Dedicated lane threads; the caller drives the CDCL lane so a
  // K-walksat portfolio spawns exactly K threads. Barrier = join.
  std::vector<std::thread> threads;
  threads.reserve(k);
  bool spawn_failed = false;
  for (size_t lane = 0; lane < k; ++lane) {
    if (XVU_FAIL_POINT_HIT(failpoints::kPortfolioSpawn)) {
      spawn_failed = true;
      break;
    }
    try {
      threads.emplace_back(run_lane, static_cast<int>(lane));
    } catch (const std::system_error&) {
      spawn_failed = true;
      break;
    }
  }
  if (spawn_failed) {
    // Degrade: stop the lanes already racing, then solve inline in the
    // fixed-priority order. The result is bit-identical to the threaded
    // path; only latency suffers. The partial lanes' results are
    // discarded (their stats were written by now-joined threads and
    // still accumulate below).
    cancel.store(true);
    for (std::thread& t : threads) t.join();
    obs::TraceInstant("sat.portfolio.degraded_spawn");
    if (stats != nullptr) {
      stats->lanes = k + 1;
      stats->threaded = false;
      stats->degraded_spawn = true;
      for (const LaneOutcome& o : out) stats->totals.Accumulate(o.stats);
    }
    if (obs::MetricsEnabled()) {
      XVU_OBS_COUNT("xvu.sat.degraded_spawns", 1);
      // The partial lanes' solver work happened; fold it in (the inline
      // re-solve below records its own run).
      SatStats partial;
      for (const LaneOutcome& o : out) partial.Accumulate(o.stats);
      AccumulateSatCounters(partial);
    }
    return solve_inline();
  }
  run_lane(cdcl_lane);
  for (std::thread& t : threads) t.join();

  int winner = out[0].res.kind == SatResult::Kind::kSat ? 0 : cdcl_lane;
  if (!Definitive(out[static_cast<size_t>(winner)].res)) winner = -1;

  size_t cancelled = 0;
  SatStats run_totals;
  for (const LaneOutcome& o : out) {
    run_totals.Accumulate(o.stats);
    if (o.cancelled) ++cancelled;
  }
  if (stats != nullptr) {
    stats->lanes = k + 1;
    stats->threaded = true;
    stats->winner_lane = winner;
    stats->totals.Accumulate(run_totals);
    stats->lanes_cancelled += cancelled;
  }
  RecordSatRunMetrics(run_totals, winner);
  XVU_OBS_COUNT("xvu.sat.lanes_cancelled", cancelled);
  if (winner >= 0) {
    obs::TraceInstant("sat.winner", "lane", static_cast<uint64_t>(winner));
  }
  if (winner < 0) {
    SatResult res;
    res.kind = SatResult::Kind::kUnknown;
    return res;
  }
  return out[static_cast<size_t>(winner)].res;
}

}  // namespace xvu
