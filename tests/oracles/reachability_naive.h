#ifndef XVU_TESTS_ORACLES_REACHABILITY_NAIVE_H_
#define XVU_TESTS_ORACLES_REACHABILITY_NAIVE_H_

#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"

namespace xvu {

/// The naive transitive closure of `dag` by one DFS per live node,
/// handed to an empty M through Reachability::SetAncestorRows: the
/// oracle that Reachability::Compute and the maintenance engine's merge
/// are checked against, and the baseline of bench_ablation_reach.
Reachability NaiveReachability(const DagView& dag);

}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_REACHABILITY_NAIVE_H_
