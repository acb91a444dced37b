#ifndef XVU_TESTS_ORACLES_SPJ_NESTED_LOOP_H_
#define XVU_TESTS_ORACLES_SPJ_NESTED_LOOP_H_

#include <vector>

#include "src/common/status.h"
#include "src/relational/database.h"
#include "src/relational/spj.h"

namespace xvu {

/// The reference evaluator of an SPJ query, over SpjQuery's public
/// accessors: fixed FROM order, full scans, hash tables rebuilt per step.
/// It enumerates rows in the canonical order SpjQuery::EvalWithWitness
/// promises (lexicographic in table-scan positions over the FROM list),
/// so the two must return bit-identical WitnessedRow sequences.
/// `pinned_pos`/`pinned_row` restrict one occurrence to one row, like
/// SpjQuery::EvalWithWitnessPinned; the default pins nothing.
Result<std::vector<SpjQuery::WitnessedRow>> EvalNestedLoop(
    const SpjQuery& q, const Database& db, const Tuple& params,
    size_t pinned_pos = static_cast<size_t>(-1),
    const Tuple& pinned_row = {});

}  // namespace xvu

#endif  // XVU_TESTS_ORACLES_SPJ_NESTED_LOOP_H_
