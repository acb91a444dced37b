#ifndef XVU_SAT_PORTFOLIO_H_
#define XVU_SAT_PORTFOLIO_H_

#include <cstdint>

#include "src/common/deadline.h"
#include "src/sat/cdcl.h"
#include "src/sat/cnf.h"
#include "src/sat/walksat.h"

namespace xvu {

/// Configuration of the SAT portfolio: K diversified WalkSAT lanes
/// (distinct seeds and noise levels; lane 0 keeps the base configuration
/// verbatim) racing one complete CDCL lane, sharing a cancellation token
/// that every solver's inner loop polls.
///
/// All lanes join at a barrier and the fixed-priority winner is picked:
/// WalkSAT lane 0 if it found a model, else the CDCL lane's verdict.
/// Because lane 0 and CDCL are each deterministic and complete lanes
/// never borrow randomness from timing, the returned (kind, model) is
/// bit-identical for ANY lane count and ANY thread interleaving; extra
/// lanes only widen the cancellation surface.
///
/// The portfolio owns dedicated lane threads — it must not borrow the
/// repo-wide ThreadPool, whose ParallelFor cannot nest and is already
/// occupied by the insert translation's symbolic passes when the SAT call
/// happens inside ApplyBatch.
struct PortfolioOptions {
  /// Number of WalkSAT lanes (K). 0 = CDCL only.
  size_t walksat_lanes = 3;
  /// Lane 0's WalkSAT configuration; lanes 1..K-1 derive diversified
  /// seeds/noise from it.
  WalkSatOptions walksat;
  CdclOptions cdcl;
  /// Formulas with at most this many clauses are solved inline on the
  /// calling thread (lane 0 then CDCL — the same fixed-priority order, so
  /// results are bit-identical to the threaded path). The insert
  /// translation's encodings are almost always this small; thread spawn
  /// would dominate.
  size_t inline_below_clauses = 64;
  /// Wall-clock budget applied to every lane (copied into each lane's
  /// solver options unless that lane already carries a tighter one).
  /// Expiry makes lanes give up (kUnknown) like an exhausted budget.
  Deadline deadline;
};

/// Per-run portfolio observability.
struct PortfolioStats {
  size_t lanes = 0;       ///< lanes launched (walksat lanes + 1 CDCL)
  int winner_lane = -1;   ///< 0..K-1 = WalkSAT lane, K = CDCL, -1 = none
  bool threaded = false;  ///< false when the inline fast path ran
  /// Lanes that exited through the cancellation token. Timing-dependent in
  /// threaded mode (losers may also finish naturally first) — use for
  /// observability, not assertions about exact counts.
  size_t lanes_cancelled = 0;
  /// Aggregated counters over every lane that ran. Deterministic on the
  /// inline path; timing-dependent in threaded mode (cancelled lanes stop
  /// mid-budget). The returned SatResult is what carries the determinism
  /// guarantee, never these counters.
  SatStats totals;
  /// True when lane-thread creation failed and the portfolio degraded to
  /// the inline sequential path (same fixed-priority order, so the result
  /// is unchanged — only latency suffers).
  bool degraded_spawn = false;
};

/// Races the portfolio on `cnf`. Returns kSat with a model, kUnsat, or
/// kUnknown only when every lane gave up (possible only with a
/// conflict-capped CDCL lane).
SatResult SolvePortfolio(const Cnf& cnf, const PortfolioOptions& options = {},
                         PortfolioStats* stats = nullptr);

/// Folds one solver run's counters into the metrics registry
/// (xvu.sat.runs / propagations / flips / ... and the winner-lane gauge).
/// SolvePortfolio calls it on every path, and a bench that runs one
/// solver alone calls it directly, so benches read every solver run's
/// work from one source of truth.
void RecordSatRunMetrics(const SatStats& totals, int winner_lane);

}  // namespace xvu

#endif  // XVU_SAT_PORTFOLIO_H_
