#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/dag/dag_view.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "tests/oracles/reachability_naive.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

TEST(DagView, GetOrAddNodeDeduplicatesByTypeAndAttr) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId b = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId c = dag.GetOrAddNode("course", {Value::Str("CS650")});
  NodeId d = dag.GetOrAddNode("prereq", {Value::Str("CS320")});
  EXPECT_EQ(a, b);  // the Skolem function gen_id
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);  // type participates in identity
  EXPECT_EQ(dag.num_nodes(), 3u);
}

TEST(DagView, EdgesAreSetsAndOrdered) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId x = dag.GetOrAddNode("x", {Value::Int(1)});
  NodeId y = dag.GetOrAddNode("y", {Value::Int(2)});
  EXPECT_TRUE(dag.AddEdge(r, x));
  EXPECT_TRUE(dag.AddEdge(r, y));
  EXPECT_FALSE(dag.AddEdge(r, x));  // set semantics
  EXPECT_EQ(dag.num_edges(), 2u);
  // Children keep insertion (document) order.
  ASSERT_EQ(dag.children(r).size(), 2u);
  EXPECT_EQ(dag.children(r)[0], x);
  EXPECT_EQ(dag.children(r)[1], y);
  EXPECT_EQ(dag.parents(x).size(), 1u);
}

TEST(DagView, RemoveEdgeAndNode) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId x = dag.GetOrAddNode("x", {});
  dag.AddEdge(r, x);
  // A node with incident edges cannot be removed.
  EXPECT_FALSE(dag.RemoveNode(x).ok());
  EXPECT_TRUE(dag.RemoveEdge(r, x).ok());
  EXPECT_FALSE(dag.RemoveEdge(r, x).ok());
  EXPECT_TRUE(dag.RemoveNode(x).ok());
  EXPECT_FALSE(dag.alive(x));
  EXPECT_EQ(dag.num_nodes(), 1u);
  // The (type, attr) slot is free again.
  NodeId x2 = dag.GetOrAddNode("x", {});
  EXPECT_NE(x2, x);
}

TEST(DagView, UncompressedTreeSizeCountsSharing) {
  // Diamond: root -> {a, b} -> c. As a tree, c appears twice.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(r, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  EXPECT_EQ(dag.num_nodes(), 4u);
  EXPECT_EQ(dag.UncompressedTreeSize(), 5u);  // r a c b c
}

TEST(DagView, ExponentialCompression) {
  // A chain of diamonds: DAG is linear, tree is exponential.
  DagView dag;
  NodeId prev = dag.GetOrAddNode("n", {Value::Int(0)});
  dag.SetRoot(prev);
  for (int i = 1; i <= 20; ++i) {
    NodeId l = dag.GetOrAddNode("l", {Value::Int(i)});
    NodeId r = dag.GetOrAddNode("r", {Value::Int(i)});
    NodeId next = dag.GetOrAddNode("n", {Value::Int(i)});
    dag.AddEdge(prev, l);
    dag.AddEdge(prev, r);
    dag.AddEdge(l, next);
    dag.AddEdge(r, next);
    prev = next;
  }
  EXPECT_EQ(dag.num_nodes(), 61u);
  EXPECT_GT(dag.UncompressedTreeSize(), 1u << 20);
}

TEST(DagView, ToXmlRendersAndTruncates) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("db", {});
  NodeId c = dag.GetOrAddNode("course", {Value::Str("CS320")});
  NodeId t = dag.GetOrAddNode("cno", {Value::Str("CS320")});
  dag.MarkTextNode(t);
  dag.SetRoot(r);
  dag.AddEdge(r, c);
  dag.AddEdge(c, t);
  std::string xml = dag.ToXml();
  EXPECT_NE(xml.find("<db>"), std::string::npos);
  EXPECT_NE(xml.find("<cno>CS320</cno>"), std::string::npos);
  // Childless non-text nodes render as empty elements, not as text.
  DagView empty;
  NodeId e = empty.GetOrAddNode("prereq", {Value::Str("X")});
  empty.SetRoot(e);
  EXPECT_NE(empty.ToXml().find("<prereq/>"), std::string::npos);
  std::string truncated = dag.ToXml(1);
  EXPECT_NE(truncated.find("truncated"), std::string::npos);
}

TEST(TopoOrder, DescendantsFirstInvariant) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    DagView dag = RandomDag(200, 0.4, seed);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    EXPECT_TRUE(topo->Check(dag).ok()) << "seed " << seed;
  }
}

TEST(TopoOrder, DetectsCycle) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  dag.SetRoot(a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, a);
  EXPECT_FALSE(TopoOrder::Compute(dag).ok());
}

TEST(Reachability, MatchesNaiveOnRandomDags) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    DagView dag = RandomDag(150, 0.5, seed);
    auto topo = TopoOrder::Compute(dag);
    ASSERT_TRUE(topo.ok());
    Reachability fast = Reachability::Compute(dag, *topo);
    Reachability naive = NaiveReachability(dag);
    EXPECT_TRUE(fast == naive) << "seed " << seed;
  }
}

TEST(Reachability, StrictAndTransitive) {
  DagView dag;
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, c);
  auto topo = TopoOrder::Compute(dag);
  ASSERT_TRUE(topo.ok());
  Reachability m = Reachability::Compute(dag, *topo);
  EXPECT_TRUE(m.IsAncestor(a, b));
  EXPECT_TRUE(m.IsAncestor(a, c));  // transitive
  EXPECT_TRUE(m.IsAncestor(b, c));
  EXPECT_FALSE(m.IsAncestor(c, a));
  EXPECT_FALSE(m.IsAncestor(a, a));  // strict
  EXPECT_EQ(m.size(), 3u);
}

/// Replaces d's ancestor row with `row` (sorted, without d) in one bulk
/// SetAncestorRows call.
void SetRow(Reachability* m, NodeId d, Reachability::Row row,
            Reachability::Pairs* added, Reachability::Pairs* removed) {
  std::vector<std::pair<NodeId, Reachability::Row>> rows;
  rows.emplace_back(d, std::move(row));
  m->SetAncestorRows(std::move(rows), added, removed);
}

TEST(Reachability, InsertEraseBookkeeping) {
  Reachability m;
  Reachability::Pairs added, removed;
  SetRow(&m, 2, {1}, &added, &removed);
  EXPECT_EQ(added, (Reachability::Pairs{{1, 2}}));
  added.clear();
  SetRow(&m, 2, {1}, &added, &removed);  // unchanged row
  EXPECT_TRUE(added.empty());
  EXPECT_TRUE(removed.empty());
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.Descendants(1), Reachability::Row{2});
  EXPECT_EQ(m.Ancestors(2), Reachability::Row{1});
  m.ErasePairs(Reachability::Pairs{{1, 2}}, &removed);
  EXPECT_EQ(removed, (Reachability::Pairs{{1, 2}}));
  removed.clear();
  m.ErasePairs(Reachability::Pairs{{1, 2}}, &removed);
  EXPECT_TRUE(removed.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(Reachability, SetAncestorRowsReportsChanges) {
  Reachability m;
  SetRow(&m, 5, {1, 2, 3}, nullptr, nullptr);
  Reachability::Pairs added, removed;
  SetRow(&m, 5, {2, 4}, &added, &removed);
  EXPECT_EQ(added, (Reachability::Pairs{{4, 5}}));
  EXPECT_EQ(removed, (Reachability::Pairs{{1, 5}, {3, 5}}));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.IsAncestor(2, 5));
  EXPECT_FALSE(m.IsAncestor(1, 5));
  EXPECT_TRUE(m.Descendants(1).empty());
  EXPECT_EQ(m.Descendants(4), Reachability::Row{5});
}

// ---------------------------------------------------------------------------
// Row-model fuzz: random bulk row updates, single pairs and single rows
// among them, applied both to Reachability and to a std::set of
// (anc, desc) pairs. Repeated products
// under a few hub ancestors push their descendant rows to thousands of
// ids, so the merge and remove passes run against long rows.
// ---------------------------------------------------------------------------

using PairSet = std::set<std::pair<NodeId, NodeId>>;

constexpr NodeId kFuzzIds = 5000;
constexpr NodeId kHubs = 4;

/// k random ids below kFuzzIds, sorted and duplicate-free, without `skip`.
Reachability::Row RandomRow(Rng* rng, size_t k, NodeId skip = kInvalidNode) {
  Reachability::Row row;
  for (size_t i = 0; i < k; ++i) {
    row.push_back(static_cast<NodeId>(rng->Below(kFuzzIds)));
  }
  std::sort(row.begin(), row.end());
  row.erase(std::unique(row.begin(), row.end()), row.end());
  row.erase(std::remove(row.begin(), row.end(), skip), row.end());
  return row;
}

Reachability::Pairs Sorted(Reachability::Pairs v) {
  std::sort(v.begin(), v.end());
  return v;
}

bool StrictlyIncreasing(const Reachability::Row& row) {
  for (size_t i = 1; i < row.size(); ++i) {
    if (row[i - 1] >= row[i]) return false;
  }
  return true;
}

bool Holds(const Reachability::Row& row, NodeId x) {
  return std::binary_search(row.begin(), row.end(), x);
}

/// Rows strictly increasing, anc and desc rows mirroring each other, and
/// the pair set and size() equal to the reference.
void ExpectRowModel(const Reachability& m, const PairSet& ref,
                    const std::string& ctx) {
  ASSERT_EQ(m.size(), ref.size()) << ctx;
  size_t anc_total = 0, desc_total = 0;
  auto it = ref.begin();
  for (NodeId v = 0; v < kFuzzIds; ++v) {
    const Reachability::Row& anc = m.Ancestors(v);
    const Reachability::Row& desc = m.Descendants(v);
    ASSERT_TRUE(StrictlyIncreasing(anc))
        << ctx << ": ancestor row of " << v << " not strictly increasing";
    ASSERT_TRUE(StrictlyIncreasing(desc))
        << ctx << ": descendant row of " << v << " not strictly increasing";
    for (NodeId a : anc) {
      ASSERT_TRUE(Holds(m.Descendants(a), v))
          << ctx << ": (" << a << "," << v << ") missing from desc rows";
    }
    // ref is ordered by (anc, desc): its run for v is v's descendant row.
    for (NodeId d : desc) {
      ASSERT_TRUE(it != ref.end() && *it == std::make_pair(v, d))
          << ctx << ": (" << v << "," << d << ") not in the reference";
      ++it;
    }
    anc_total += anc.size();
    desc_total += desc.size();
  }
  EXPECT_TRUE(it == ref.end()) << ctx << ": reference pairs missing from M";
  EXPECT_EQ(anc_total, m.size()) << ctx;
  EXPECT_EQ(desc_total, m.size()) << ctx;
}

TEST(Reachability, RowModelFuzzMatchesPairSetReference) {
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    Rng rng(seed * 7919);
    Reachability m;
    PairSet ref;
    size_t longest = 0;  // longest hub descendant row seen
    // Random pairs biased towards those already held, so erasures and
    // row replacements hit.
    auto held_or_random = [&]() -> std::pair<NodeId, NodeId> {
      NodeId d = static_cast<NodeId>(rng.Below(kFuzzIds));
      const Reachability::Row& anc = m.Ancestors(d);
      if (!anc.empty() && rng.Chance(0.7)) {
        return {anc[rng.Below(anc.size())], d};
      }
      return {static_cast<NodeId>(rng.Below(kFuzzIds)), d};
    };
    for (int step = 0; step < 150; ++step) {
      std::string ctx =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      switch (rng.Below(6)) {
        case 0: {
          auto [a, d] = held_or_random();
          Reachability::Pairs want_added, added, removed;
          Reachability::Row row = m.Ancestors(d);
          if (a != d && ref.emplace(a, d).second) {
            want_added.emplace_back(a, d);
            row.insert(std::lower_bound(row.begin(), row.end(), a), a);
          }
          SetRow(&m, d, std::move(row), &added, &removed);
          EXPECT_EQ(added, want_added) << ctx;
          EXPECT_TRUE(removed.empty()) << ctx;
          break;
        }
        case 1: {
          auto [a, d] = held_or_random();
          Reachability::Pairs want_removed, removed;
          if (ref.erase({a, d}) > 0) want_removed.emplace_back(a, d);
          m.ErasePairs(Reachability::Pairs{{a, d}}, &removed);
          EXPECT_EQ(removed, want_removed) << ctx;
          break;
        }
        case 2: {
          NodeId d = static_cast<NodeId>(rng.Below(kFuzzIds));
          Reachability::Row row = RandomRow(&rng, rng.Below(64), d);
          Reachability::Pairs want_added, want_removed;
          for (NodeId a : m.Ancestors(d)) {
            if (!Holds(row, a)) {
              want_removed.emplace_back(a, d);
              ref.erase({a, d});
            }
          }
          for (NodeId a : row) {
            if (ref.emplace(a, d).second) want_added.emplace_back(a, d);
          }
          std::vector<std::pair<NodeId, Reachability::Row>> rows;
          rows.emplace_back(d, std::move(row));
          Reachability::Pairs added, removed;
          m.SetAncestorRows(std::move(rows), &added, &removed);
          EXPECT_EQ(Sorted(added), Sorted(want_added)) << ctx;
          EXPECT_EQ(Sorted(removed), Sorted(want_removed)) << ctx;
          break;
        }
        case 3: {
          // A few hub ancestors over up to 2000 descendants: repeated
          // products grow the hubs' descendant rows to thousands of ids.
          Reachability::Row anc;
          for (size_t i = 1 + rng.Below(4); i > 0; --i) {
            anc.push_back(static_cast<NodeId>(rng.Below(kHubs)));
          }
          std::sort(anc.begin(), anc.end());
          anc.erase(std::unique(anc.begin(), anc.end()), anc.end());
          Reachability::Row desc = RandomRow(&rng, rng.Below(2000));
          Reachability::Pairs want_added;
          std::vector<std::pair<NodeId, Reachability::Row>> rows;
          for (NodeId d : desc) {
            Reachability::Row row = m.Ancestors(d);
            for (NodeId a : anc) {
              if (a != d && ref.emplace(a, d).second) {
                want_added.emplace_back(a, d);
                row.insert(std::lower_bound(row.begin(), row.end(), a), a);
              }
            }
            rows.emplace_back(d, std::move(row));
          }
          Reachability::Pairs added, removed;
          m.SetAncestorRows(std::move(rows), &added, &removed);
          EXPECT_EQ(Sorted(added), Sorted(want_added)) << ctx;
          EXPECT_TRUE(removed.empty()) << ctx;
          break;
        }
        case 4: {
          Reachability::Pairs pairs, want_removed;
          size_t k = rng.Below(3000);
          for (size_t i = 0; i < k; ++i) pairs.push_back(held_or_random());
          for (const auto& p : pairs) {
            if (ref.erase(p) > 0) want_removed.push_back(p);
          }
          Reachability::Pairs removed;
          m.ErasePairs(pairs, &removed);
          EXPECT_EQ(Sorted(removed), Sorted(want_removed)) << ctx;
          break;
        }
        case 5: {
          Reachability::Row ds = RandomRow(&rng, 1 + rng.Below(40));
          std::vector<std::pair<NodeId, Reachability::Row>> rows;
          Reachability::Pairs want_added, want_removed;
          for (NodeId d : ds) {
            Reachability::Row row = RandomRow(&rng, rng.Below(200), d);
            for (NodeId a : m.Ancestors(d)) {
              if (!Holds(row, a)) {
                want_removed.emplace_back(a, d);
                ref.erase({a, d});
              }
            }
            for (NodeId a : row) {
              if (ref.emplace(a, d).second) want_added.emplace_back(a, d);
            }
            rows.emplace_back(d, std::move(row));
          }
          Reachability::Pairs added, removed;
          m.SetAncestorRows(std::move(rows), &added, &removed);
          EXPECT_EQ(Sorted(added), Sorted(want_added)) << ctx;
          EXPECT_EQ(Sorted(removed), Sorted(want_removed)) << ctx;
          break;
        }
      }
      ExpectRowModel(m, ref, ctx);
      if (HasFatalFailure()) return;
      for (NodeId h = 0; h < kHubs; ++h) {
        longest = std::max(longest, m.Descendants(h).size());
      }
    }
    EXPECT_GT(longest, 2000u) << "seed " << seed << ": no long row reached";

    // Finally replace every ancestor row with that of a random DAG's
    // closure over the same ids: whatever the fuzzed state, the bulk
    // replacement must land exactly on the naive closure, descendant rows
    // and size included.
    DagView dag = RandomDag(kFuzzIds, 0.1, seed);
    Reachability naive = NaiveReachability(dag);
    std::vector<std::pair<NodeId, Reachability::Row>> rows;
    for (NodeId v = 0; v < kFuzzIds; ++v) {
      rows.emplace_back(v, naive.Ancestors(v));
    }
    m.SetAncestorRows(std::move(rows), nullptr, nullptr);
    EXPECT_TRUE(m == naive) << "seed " << seed;
    PairSet closure;
    for (NodeId a = 0; a < kFuzzIds; ++a) {
      for (NodeId d : naive.Descendants(a)) closure.emplace(a, d);
    }
    ExpectRowModel(m, closure, "seed " + std::to_string(seed) + " closure");
  }
}

TEST(DagView, CanonicalEdgesStableUnderIdRenaming) {
  // Two DAGs with the same logical content built in different orders.
  DagView d1, d2;
  NodeId r1 = d1.GetOrAddNode("r", {});
  NodeId a1 = d1.GetOrAddNode("a", {Value::Int(1)});
  d1.SetRoot(r1);
  d1.AddEdge(r1, a1);

  NodeId a2 = d2.GetOrAddNode("a", {Value::Int(1)});
  NodeId r2 = d2.GetOrAddNode("r", {});
  d2.SetRoot(r2);
  d2.AddEdge(r2, a2);

  EXPECT_EQ(d1.CanonicalEdges(), d2.CanonicalEdges());
}

/// Deep structural equality through the public API — including exact
/// children order, parents-vector layout, node-id allocation, and the
/// journal tail — the "bit-identical" bar RewindTo is held to.
void ExpectIdentical(const DagView& a, const DagView& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.version(), b.version());
  EXPECT_EQ(a.root(), b.root());
  for (NodeId id = 0; id < a.capacity(); ++id) {
    ASSERT_EQ(a.alive(id), b.alive(id)) << "node " << id;
    EXPECT_EQ(a.node(id).type, b.node(id).type);
    EXPECT_EQ(a.node(id).attr, b.node(id).attr);
    EXPECT_EQ(a.children(id), b.children(id)) << "children of " << id;
    EXPECT_EQ(a.parents(id), b.parents(id)) << "parents of " << id;
    if (a.alive(id)) {
      EXPECT_EQ(a.FindNode(a.node(id).type, a.node(id).attr), id);
      EXPECT_EQ(b.FindNode(b.node(id).type, b.node(id).attr), id);
    }
  }
  // Journal tails must agree so post-rewind incremental maintenance
  // replays the same window on both.
  std::vector<DagDelta> ja = a.JournalSince(0);
  std::vector<DagDelta> jb = b.JournalSince(0);
  ASSERT_EQ(ja.size(), jb.size());
  for (size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].ToString(), jb[i].ToString());
  }
}

TEST(DagRewind, UndoesEveryMutationKind) {
  DagView dag = RandomDag(12, 0.3, 7);
  DagView snapshot = dag;
  const uint64_t v0 = dag.version();

  // One of each mutation kind, including an edge removal from the
  // middle of a child list (exercises the positional undo).
  NodeId r = dag.root();
  ASSERT_GE(dag.children(r).size(), 1u);
  NodeId mid = dag.children(r)[dag.children(r).size() / 2];
  ASSERT_TRUE(dag.RemoveEdge(r, mid).ok());
  NodeId fresh = dag.GetOrAddNode("fresh", {Value::Int(99)});
  dag.AddEdge(r, fresh);
  dag.SetRoot(fresh);
  ASSERT_TRUE(dag.RemoveEdge(r, fresh).ok());
  ASSERT_TRUE(dag.RemoveNode(fresh).ok());
  ASSERT_NE(dag.version(), v0);

  ASSERT_TRUE(dag.RewindTo(v0).ok());
  ExpectIdentical(dag, snapshot);
}

TEST(DagRewind, RetryAfterRewindMatchesNeverRewoundRun) {
  // Apply the same mutation sequence to a rewound DAG and to a pristine
  // copy: node ids, versions, and journals must match exactly.
  DagView dag = RandomDag(10, 0.25, 11);
  DagView pristine = dag;
  const uint64_t v0 = dag.version();

  auto mutate = [](DagView* d) {
    NodeId n1 = d->GetOrAddNode("m", {Value::Int(1)});
    NodeId n2 = d->GetOrAddNode("m", {Value::Int(2)});
    d->AddEdge(d->root(), n1);
    d->AddEdge(n1, n2);
  };
  mutate(&dag);  // first attempt, will be "faulted" and rewound
  ASSERT_TRUE(dag.RewindTo(v0).ok());
  mutate(&dag);       // the retry
  mutate(&pristine);  // the never-faulted reference
  ExpectIdentical(dag, pristine);
}

TEST(DagRewind, FuzzRandomMutationWindows) {
  Rng rng(123);
  for (int round = 0; round < 30; ++round) {
    DagView dag = RandomDag(8 + rng.Below(12), 0.3, 1000 + round);
    DagView snapshot = dag;
    const uint64_t v0 = dag.version();
    // Random mutation burst: adds, ordered removals, tombstones.
    for (int i = 0; i < 15; ++i) {
      switch (rng.Below(4)) {
        case 0:
          dag.GetOrAddNode("z", {Value::Int(rng.Range(0, 30))});
          break;
        case 1: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          NodeId v = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && dag.alive(v) && u != v && !dag.HasEdge(v, u)) {
            dag.AddEdge(u, v);
          }
          break;
        }
        case 2: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && !dag.children(u).empty()) {
            dag.RemoveEdge(
                u, dag.children(u)[rng.Below(dag.children(u).size())]);
          }
          break;
        }
        case 3: {
          NodeId u = static_cast<NodeId>(rng.Below(dag.capacity()));
          if (dag.alive(u) && dag.children(u).empty() &&
              dag.parents(u).empty()) {
            dag.RemoveNode(u);
          }
          break;
        }
      }
    }
    ASSERT_TRUE(dag.RewindTo(v0).ok()) << "round " << round;
    ExpectIdentical(dag, snapshot);
  }
}

TEST(DagRewind, FutureVersionRejected) {
  DagView dag = RandomDag(5, 0.2, 3);
  Status s = dag.RewindTo(dag.version() + 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(DagRewind, EvictedWindowReportsUnavailable) {
  // A tiny journal capacity forces eviction; the rewind must refuse
  // rather than corrupt, and leave the DAG untouched.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  dag.SetRoot(r);
  const uint64_t v0 = dag.version();
  for (int i = 0; i < 70000; ++i) {  // overflow kDefaultCapacity = 1<<16
    dag.GetOrAddNode("n", {Value::Int(i)});
  }
  (void)r;
  const uint64_t v_before = dag.version();
  Status s = dag.RewindTo(v0);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(dag.version(), v_before);  // untouched
}

}  // namespace
}  // namespace xvu
