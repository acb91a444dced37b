#ifndef XVU_VIEWUPDATE_INSERT_H_
#define XVU_VIEWUPDATE_INSERT_H_

#include <vector>

#include "src/common/deadline.h"
#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/sat/portfolio.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/view_store.h"

namespace xvu {

class ThreadPool;

struct InsertOptions {
  /// The SAT portfolio that solves the side-effect encoding: K
  /// diversified WalkSAT lanes (lane 0 is the paper's WalkSAT) racing one
  /// complete CDCL lane (src/sat/portfolio.h). Its fixed-priority winner
  /// makes the translation bit-identical for any lane count or timing.
  PortfolioOptions portfolio;
  /// Safety cap on symbolic join work; exceeded => Rejected.
  size_t max_symbolic_candidates = 200000;
  /// Wall-clock budget threaded into every solver lane. When the solver
  /// gives up and the deadline has expired, the translation returns
  /// kDeadlineExceeded instead of the usual kRejected, so callers can
  /// tell "budget ran out" from "probably untranslatable". Default
  /// infinite: no behaviour change.
  Deadline deadline;
};

/// Statistics and result of a group-insertion translation.
struct InsertTranslation {
  RelationalUpdate delta_r;
  size_t num_templates = 0;    ///< tuple templates derived (|X_i| total)
  size_t num_variables = 0;    ///< finite-domain variables encoded
  size_t num_sat_vars = 0;     ///< propositional variables
  size_t num_sat_clauses = 0;  ///< CNF clauses
  size_t num_tasks = 0;        ///< independent symbolic side-effect passes
  size_t num_candidates = 0;   ///< symbolic join work items examined
  bool used_sat = false;       ///< a solver run was needed
  /// Solver observability (zero when used_sat is false): aggregated lane
  /// counters, the portfolio winner (-1 none; 0..K-1 WalkSAT lane; K CDCL
  /// lane) and the solver wall time.
  SatStats sat_stats;
  int sat_winner_lane = -1;
  double sat_seconds = 0;
};

/// Algorithm insert (Section 4.3 / Appendix A): translates a group of
/// edge-view row insertions ∆V into base-table insertions ∆R such that
/// ∆V(V(I)) = V(∆R(I)), or rejects.
///
/// Pipeline:
///  1. Tuple templates: per ∆V row and FROM occurrence, derive the base
///     tuple it needs — keys come from the extended view row (key
///     preservation), other columns from the rule's conditions/projection
///     via constant propagation and variable unification (the Appendix A
///     preprocessing). Conflicts with existing base tuples => Rejected.
///  2. Symbolic side-effect evaluation: every view query is evaluated over
///     I ∪ X with at least one new template participating; a resulting row
///     that is neither in the view nor in ∆V is a side effect. A fully
///     concrete one rejects the update (Appendix A case (a)); one guarded
///     by a condition with an infinite-domain free variable is avoided by
///     assigning fresh values (case (b)); one guarded only by
///     finite-domain variables contributes the negated condition ¬φt to
///     the CNF (case (c)). Each (view, forced occurrence, new template)
///     pass is independent — all shared state is frozen after step 1 — so
///     when `pool` is non-null the passes run concurrently, with per-pass
///     outputs merged in the serial enumeration order (bit-identical
///     results for any worker count).
///  3. SAT: solve with the portfolio, whose lane 0 is the paper's WalkSAT
///     (Theorem 4 gives the correspondence); reject when no assignment is
///     found.
///  4. ∆R derivation: instantiate the new templates from the model; free
///     infinite-domain variables receive fresh values outside the active
///     domain.
Result<InsertTranslation> TranslateGroupInsertion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& insertions,
    const InsertOptions& options = {}, ThreadPool* pool = nullptr);

}  // namespace xvu

#endif  // XVU_VIEWUPDATE_INSERT_H_
