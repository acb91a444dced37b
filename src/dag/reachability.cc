#include "src/dag/reachability.h"

#include <cstdint>

namespace xvu {

const Reachability::Row Reachability::kEmpty{};

namespace {

using Row = Reachability::Row;
using Pairs = Reachability::Pairs;

/// Merges the sorted ids `add` (none of them in *row) into the sorted
/// *row, back to front: O(|add|) plus the entries of *row that sort after
/// add's smallest id, so appending fresh (largest) ids costs O(|add|).
void MergeSorted(Row* row, const Row& add) {
  if (add.empty()) return;
  size_t i = row->size(), j = add.size(), w = i + j;
  row->resize(w);
  NodeId* r = row->data();
  while (j > 0) {
    if (i > 0 && r[i - 1] > add[j - 1]) {
      r[--w] = r[--i];
    } else {
      r[--w] = add[--j];
    }
  }
}

/// Removes the sorted ids `del` (all of them in *row) from the sorted
/// *row in one compaction pass starting at the first removed position.
void RemoveSorted(Row* row, const Row& del) {
  if (del.empty()) return;
  auto w = std::lower_bound(row->begin(), row->end(), del.front());
  size_t j = 0;
  for (auto r = w; r != row->end(); ++r) {
    if (j < del.size() && *r == del[j]) {
      ++j;
    } else {
      *w++ = *r;
    }
  }
  row->erase(w, row->end());
}

/// Appends to `held` the ids of the sorted `probe` that the sorted `row`
/// holds, in O(|probe| log |row|).
void Intersect(const Row& row, const Row& probe, Row* held) {
  auto it = row.begin();
  for (NodeId x : probe) {
    it = std::lower_bound(it, row.end(), x);
    if (it != row.end() && *it == x) held->push_back(x);
  }
}

/// A pair packed as (key << 32 | value): sorting packed pairs groups them
/// by key with values ascending, at the cost of an integer sort.
using Packed = std::vector<uint64_t>;

uint64_t Pack(NodeId key, NodeId value) {
  return static_cast<uint64_t>(key) << 32 | value;
}
NodeId KeyOf(uint64_t p) { return static_cast<NodeId>(p >> 32); }
NodeId ValueOf(uint64_t p) { return static_cast<NodeId>(p); }

/// Calls fn(key, values) once per run of equal keys in the sorted
/// `packed`, with `values` the run's values in ascending order.
template <typename Fn>
void ForEachRun(const Packed& packed, Fn fn) {
  Row values;
  for (size_t i = 0; i < packed.size();) {
    const NodeId key = KeyOf(packed[i]);
    values.clear();
    for (; i < packed.size() && KeyOf(packed[i]) == key; ++i) {
      values.push_back(ValueOf(packed[i]));
    }
    fn(key, values);
  }
}

/// The non-reflexive pairs (a, d) keyed by descendant, sorted and
/// deduplicated: the ancestor-side runs.
Packed KeyByDescendant(const Pairs& pairs) {
  Packed packed;
  packed.reserve(pairs.size());
  for (const auto& [a, d] : pairs) {
    if (a != d) packed.push_back(Pack(d, a));
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
  return packed;
}

/// Adds v to rows[k] for every pair packed as (k << 32 | v) in `add` (none
/// held yet), one merge per touched row; sorts `add`.
void MergeIntoRows(Packed* add, std::vector<Row>* rows) {
  std::sort(add->begin(), add->end());
  ForEachRun(*add, [rows](NodeId k, const Row& vs) {
    MergeSorted(&(*rows)[k], vs);
  });
}

/// Removes v from rows[k] for every pair packed as (k << 32 | v) in `del`
/// (all held), one remove pass per touched row; sorts `del`.
void RemoveFromRows(Packed* del, std::vector<Row>* rows) {
  std::sort(del->begin(), del->end());
  ForEachRun(*del, [rows](NodeId k, const Row& vs) {
    RemoveSorted(&(*rows)[k], vs);
  });
}

/// Appends the pairs (a, d) of `by_anc` (packed keyed by ancestor).
void Append(const Packed& by_anc, Pairs* to) {
  if (to == nullptr) return;
  for (uint64_t p : by_anc) to->emplace_back(KeyOf(p), ValueOf(p));
}

}  // namespace

void Reachability::EnsureCapacity(size_t cap) {
  if (cap > anc_.size()) {
    anc_.resize(cap);
    desc_.resize(cap);
  }
}

Reachability Reachability::Compute(const DagView& dag,
                                   const TopoOrder& order) {
  Reachability m;
  const size_t cap = dag.capacity();
  m.anc_.resize(cap);
  m.desc_.resize(cap);
  const std::vector<NodeId>& L = order.order();
  auto row_of = [&m](NodeId p) -> const Row& { return m.anc_[p]; };
  Row scratch;
  // Backward scan: L is descendants-first, so scanning from the end visits
  // ancestors before their descendants; each node's parents are thus fully
  // resolved when the node is processed (Fig.4 lines 2-5).
  for (size_t k = L.size(); k > 0; --k) {
    NodeId d = L[k - 1];
    m.anc_[d] = UnionOverParents(dag.parents(d), row_of, &scratch);
    m.size_ += m.anc_[d].size();
  }
  // Mirror into descendant rows, sized exactly up front; visiting
  // descendants in ascending id order appends every row in sorted order.
  std::vector<size_t> count(cap, 0);
  for (const Row& ad : m.anc_) {
    for (NodeId a : ad) ++count[a];
  }
  for (size_t a = 0; a < cap; ++a) m.desc_[a].reserve(count[a]);
  for (size_t d = 0; d < cap; ++d) {
    for (NodeId a : m.anc_[d]) m.desc_[a].push_back(static_cast<NodeId>(d));
  }
  return m;
}

bool Reachability::IsAncestor(NodeId a, NodeId d) const {
  return d < anc_.size() &&
         std::binary_search(anc_[d].begin(), anc_[d].end(), a);
}

const Reachability::Row& Reachability::Ancestors(NodeId d) const {
  return d < anc_.size() ? anc_[d] : kEmpty;
}

const Reachability::Row& Reachability::Descendants(NodeId a) const {
  return a < desc_.size() ? desc_[a] : kEmpty;
}

void Reachability::ErasePairs(const Pairs& pairs, Pairs* removed) {
  Packed gone;
  Row held;
  ForEachRun(KeyByDescendant(pairs), [&](NodeId d, const Row& as) {
    if (d >= anc_.size()) return;
    held.clear();
    Intersect(anc_[d], as, &held);
    RemoveSorted(&anc_[d], held);
    for (NodeId a : held) gone.push_back(Pack(a, d));
  });
  size_ -= gone.size();
  RemoveFromRows(&gone, &desc_);
  Append(gone, removed);
}

void Reachability::SetAncestorRows(std::vector<std::pair<NodeId, Row>> rows,
                                   Pairs* added, Pairs* removed) {
  NodeId hi = 0;
  for (const auto& [d, row] : rows) {
    hi = std::max(hi, d);
    if (!row.empty()) hi = std::max(hi, row.back());
  }
  if (!rows.empty()) EnsureCapacity(static_cast<size_t>(hi) + 1);
  Packed gained, lost;
  for (auto& [d, row] : rows) {
    // One linear diff of the old row against the new one.
    const Row& old = anc_[d];
    size_t i = 0, j = 0;
    while (i < old.size() || j < row.size()) {
      if (j == row.size() || (i < old.size() && old[i] < row[j])) {
        lost.push_back(Pack(old[i++], d));
      } else if (i == old.size() || row[j] < old[i]) {
        gained.push_back(Pack(row[j++], d));
      } else {
        ++i;
        ++j;
      }
    }
    anc_[d] = std::move(row);
  }
  size_ = size_ + gained.size() - lost.size();
  RemoveFromRows(&lost, &desc_);
  MergeIntoRows(&gained, &desc_);
  Append(gained, added);
  Append(lost, removed);
}

bool Reachability::operator==(const Reachability& o) const {
  if (size_ != o.size_) return false;
  size_t n = std::max(anc_.size(), o.anc_.size());
  for (NodeId v = 0; v < n; ++v) {
    if (Ancestors(v) != o.Ancestors(v)) return false;
  }
  return true;
}

}  // namespace xvu
