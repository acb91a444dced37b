#ifndef XVU_DAG_REACHABILITY_H_
#define XVU_DAG_REACHABILITY_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dag/dag_view.h"
#include "src/dag/topo_order.h"

namespace xvu {

/// The reachability matrix M of Section 3.1, stored sparsely as the
/// relation M(anc, desc) — only set bits are kept, in both orientations,
/// as one sorted, duplicate-free NodeId row per node: its strict
/// ancestors and its strict descendants. Membership is a binary search of
/// the ancestor row (O(log |row|)), enumeration is a scan in ascending id
/// order (O(|result|), the same order for any mutation history), and a
/// copy is one flat array per row. Relationships are strict: (v, v) is
/// never stored.
///
/// Updates are bulk only: ErasePairs/SetAncestorRows take
/// all of a pass's changes at once and cost one sorted merge or one
/// remove pass per touched row in each orientation. A single-pair update
/// would shift its row (O(|row|) per pair), which is what maintenance
/// over long rows must avoid.
class Reachability {
 public:
  using Row = std::vector<NodeId>;
  using Pairs = std::vector<std::pair<NodeId, NodeId>>;

  Reachability() = default;

  /// Algorithm Reach (Fig.4): computes M by scanning L backwards
  /// (ancestors first), building each ancestor row from its parents' rows
  /// (one concatenation plus one sort+unique per node); descendant rows
  /// are filled in ascending id order, so they come out sorted.
  static Reachability Compute(const DagView& dag, const TopoOrder& order);

  /// The Fig.4 recurrence for one node: the sorted union of {p} ∪
  /// row_of(p) over `parents`. `row_of` returns a sorted row (M's own
  /// Ancestors, or a caller's not-yet-applied replacement); `scratch` is
  /// reused across calls to avoid reallocations.
  template <typename RowOf>
  static Row UnionOverParents(const std::vector<NodeId>& parents,
                              const RowOf& row_of, Row* scratch);

  /// True iff a is a (strict) ancestor of d.
  bool IsAncestor(NodeId a, NodeId d) const;

  /// d's strict ancestors, ascending.
  const Row& Ancestors(NodeId d) const;
  /// a's strict descendants, ascending.
  const Row& Descendants(NodeId a) const;

  /// Removes every pair of `pairs` (any order, duplicates allowed) that M
  /// holds, with one remove pass per touched row in each orientation.
  /// Appends the removed pairs to `removed` when non-null.
  void ErasePairs(const Pairs& pairs, Pairs* removed);

  /// Replaces the ancestor rows of distinct nodes wholesale: each entry is
  /// (d, row) with `row` sorted, duplicate-free and without d. The
  /// descendant rows follow with one merge and one remove pass per touched
  /// row. Appends gained pairs to `added` and lost pairs to `removed` when
  /// non-null.
  void SetAncestorRows(std::vector<std::pair<NodeId, Row>> rows, Pairs* added,
                       Pairs* removed);

  /// Number of stored (anc, desc) pairs — the |M| reported in Fig.10(b).
  size_t size() const { return size_; }

  bool operator==(const Reachability& o) const;

 private:
  void EnsureCapacity(size_t cap);

  std::vector<Row> anc_;
  std::vector<Row> desc_;
  size_t size_ = 0;

  static const Row kEmpty;
};

template <typename RowOf>
Reachability::Row Reachability::UnionOverParents(
    const std::vector<NodeId>& parents, const RowOf& row_of, Row* scratch) {
  scratch->clear();
  for (NodeId p : parents) {
    scratch->push_back(p);
    const Row& rp = row_of(p);
    scratch->insert(scratch->end(), rp.begin(), rp.end());
  }
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
  return Row(scratch->begin(), scratch->end());
}

}  // namespace xvu

#endif  // XVU_DAG_REACHABILITY_H_
