#ifndef XVU_TESTS_ORACLES_DPLL_H_
#define XVU_TESTS_ORACLES_DPLL_H_

#include "src/sat/cnf.h"

namespace xvu {

/// The original recursive DPLL (unit propagation + chronological
/// backtracking, no learning, re-scans every clause per propagation
/// round). Exponential and slow: the small-instance correctness oracle for
/// the CDCL/WalkSAT/portfolio fuzz tests and the "old solver" baseline of
/// bench_minimal_delete.
///
/// Returns kSat with a model, or kUnsat; never kUnknown.
SatResult SolveDpllRecursive(const Cnf& cnf);

}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_DPLL_H_
