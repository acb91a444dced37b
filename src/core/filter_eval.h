#ifndef XVU_CORE_FILTER_EVAL_H_
#define XVU_CORE_FILTER_EVAL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dag/dag_view.h"
#include "src/xpath/ast.h"
#include "src/xpath/normal_form.h"

namespace xvu {

/// Exact per-node evaluation of the qualifiers of Section 3.2: val(q, v)
/// for one live node v, computed on demand against the current DAG. It is
/// the one filter evaluator of libxvu: XPathEvaluator's forward pass asks
/// it about each context node of a filter step, and the delta patchers
/// ask it about the nodes a ∆V window touched.
///
/// Every relative path inside a qualifier is memoized per (step, node),
/// so the answers for all the nodes one evaluator is asked about cost at
/// most O(|q| · (|V| + |E|)) in total: each (step, node) pair is decided
/// once, reading at most the node's children. A `//` step inside a
/// qualifier is decided by desc(i, v) = match(i+1, v) ∨ ∃ child c:
/// desc(i, c), walked on an explicit stack, so a deep view never deepens
/// the call stack; the recursion depth is bounded by the query's size.
/// Small contexts touch only the cones they need: `C[cid="55"]` at one C
/// node reads that node's cid children and nothing else.
///
/// Not thread-safe; the memo is private to one evaluator object, which
/// must not outlive the DAG state it was built on. Filters are memoized
/// by address, so every FilterExpr asked about must outlive it too.
class NodeFilterEval {
 public:
  explicit NodeFilterEval(const DagView& dag) : dag_(dag) {}

  /// val(q, v) for a live node `v`.
  bool Eval(const FilterExpr& q, NodeId v);

 private:
  /// Memo states of one (step, node) pair.
  enum : uint8_t { kUnknown = 0, kFalse = 1, kTrue = 2 };

  struct PerFilter {
    NormalPath np;
    /// The string compared at the end of the path ([p = "s"]), or null.
    const std::string* text_eq = nullptr;
    /// memo[i][v]: whether the suffix np.steps[i..] matches from v. Each
    /// step's array is sized dag.capacity() when the step is first used.
    std::vector<std::vector<uint8_t>> memo;
  };

  PerFilter& Cached(const FilterExpr& q);
  /// exists-semantics of the suffix pf->np.steps[i..] from v, followed by
  /// the optional string-value comparison.
  bool Match(PerFilter* pf, size_t i, NodeId v);
  /// desc(i, v) for the `//` step i, on an explicit stack.
  bool DescOrSelf(PerFilter* pf, size_t i, NodeId v);
  std::vector<uint8_t>& Memo(PerFilter* pf, size_t i);

  const DagView& dag_;
  std::unordered_map<const FilterExpr*, PerFilter> filters_;
};

}  // namespace xvu

#endif  // XVU_CORE_FILTER_EVAL_H_
