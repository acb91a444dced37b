// The paper's per-update maintenance of M and L (Fig.7/8, Section 3.4) is
// the one-update window of the engine's ∆V-journal merge. These scenarios
// run MaintenanceEngine::MaintainBatch forced to kIncrementalMerge over
// such windows and hold M and L to a from-scratch recompute.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/dag/maintenance_engine.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

/// Brings `engine` forward over `dag`'s pending journal window through the
/// incremental merge and returns the merge's delta.
MaintenanceDelta Merge(MaintenanceEngine* engine, DagView* dag) {
  MaintenanceEngine::BatchOptions options;
  options.strategy = MaintenanceStrategy::kIncrementalMerge;
  MaintenanceEngine::BatchReport report;
  Status st = engine->MaintainBatch(dag, options, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.used, MaintenanceStrategy::kIncrementalMerge);
  return report.delta;
}

/// Recompute-from-scratch oracle: M and L of the current DAG. L must be
/// exactly Kahn's order, which is what rollback's Rebuild restores.
void ExpectStructuresMatchRecompute(const DagView& dag,
                                    const MaintenanceEngine& engine,
                                    const std::string& context) {
  auto fresh_topo = TopoOrder::Compute(dag);
  ASSERT_TRUE(fresh_topo.ok()) << context;
  EXPECT_TRUE(engine.reach() == Reachability::Compute(dag, *fresh_topo))
      << context << ": reachability diverged";
  EXPECT_EQ(engine.topo().order(), fresh_topo->order())
      << context << ": L differs from TopoOrder::Compute";
}

/// Attaches a synthetic "published subtree" of `k` new nodes to `dag`:
/// new[0] is the subtree root; each new node links to the next (chain) and
/// randomly to later new nodes and to existing nodes (sharing). Returns
/// (root, new nodes).
std::pair<NodeId, std::vector<NodeId>> AttachSubtree(DagView* dag, size_t k,
                                                     Rng* rng) {
  std::vector<NodeId> existing = dag->LiveNodes();
  std::vector<NodeId> fresh;
  for (size_t i = 0; i < k; ++i) {
    fresh.push_back(dag->GetOrAddNode(
        "new",
        {Value::Int(static_cast<int64_t>(1000000 + rng->Next() % 1000000)),
         Value::Int(static_cast<int64_t>(i))}));
  }
  for (size_t i = 0; i + 1 < k; ++i) {
    dag->AddEdge(fresh[i], fresh[i + 1]);
    if (rng->Chance(0.3) && i + 2 < k) {
      dag->AddEdge(fresh[i], fresh[i + 2 + rng->Below(k - i - 2)]);
    }
    if (rng->Chance(0.4)) {
      dag->AddEdge(fresh[i], existing[rng->Below(existing.size())]);
    }
  }
  if (k > 0 && rng->Chance(0.5)) {
    dag->AddEdge(fresh.back(), existing[rng->Below(existing.size())]);
  }
  return {fresh.empty() ? kInvalidNode : fresh[0], fresh};
}

TEST(MergeInsertWindow, MatchesRecomputeOnRandomScenarios) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DagView dag = RandomDag(80, 0.35, seed);
    MaintenanceEngine engine;
    ASSERT_TRUE(engine.Rebuild(dag).ok());
    Rng rng(seed * 31);

    auto [sroot, fresh] = AttachSubtree(&dag, 1 + rng.Below(12), &rng);
    ASSERT_NE(sroot, kInvalidNode);

    // Targets: existing nodes outside the subtree's cone (no cycles).
    std::vector<NodeId> cone = CollectDescOrSelf(dag, {sroot});
    std::unordered_set<NodeId> cone_set(cone.begin(), cone.end());
    std::vector<NodeId> targets;
    for (NodeId v : dag.LiveNodes()) {
      if (cone_set.count(v) == 0 && rng.Chance(0.1)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(dag.root());
    for (NodeId u : targets) dag.AddEdge(u, sroot);

    MaintenanceDelta delta = Merge(&engine, &dag);
    ExpectStructuresMatchRecompute(dag, engine,
                                   "insert seed " + std::to_string(seed));
    EXPECT_TRUE(delta.removed_nodes.empty());
    // Every reported ∆M pair is actually present.
    for (const auto& [a, d] : delta.m_inserted) {
      EXPECT_TRUE(engine.reach().IsAncestor(a, d));
    }
  }
}

TEST(MergeInsertWindow, SharedSubtreeRootAlreadyPresent) {
  // Inserting an existing node under a new parent (pure connect edge).
  DagView dag = RandomDag(40, 0.3, 3);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  const Reachability& m = engine.reach();
  // Find u, v with v not ancestor-or-self of u and no edge (u, v).
  NodeId u = kInvalidNode, v = kInvalidNode;
  for (NodeId a : dag.LiveNodes()) {
    for (NodeId b : dag.LiveNodes()) {
      if (a != b && !m.IsAncestor(b, a) && !dag.HasEdge(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
    if (u != kInvalidNode) break;
  }
  ASSERT_NE(u, kInvalidNode);
  dag.AddEdge(u, v);
  Merge(&engine, &dag);
  ExpectStructuresMatchRecompute(dag, engine, "shared-root connect");
}

TEST(MergeDeleteWindow, MatchesRecomputeOnRandomScenarios) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    DagView dag = RandomDag(80, 0.35, seed + 100);
    MaintenanceEngine engine;
    ASSERT_TRUE(engine.Rebuild(dag).ok());
    Rng rng(seed * 17);

    // Pick non-root targets and drop a random subset of their incoming
    // edges (sometimes all of them, forcing garbage collection).
    std::vector<NodeId> live = dag.LiveNodes();
    std::vector<NodeId> targets;
    for (NodeId v : live) {
      if (v != dag.root() && rng.Chance(0.15)) targets.push_back(v);
    }
    if (targets.empty()) continue;
    for (NodeId v : targets) {
      std::vector<NodeId> parents(dag.parents(v));
      bool drop_all = rng.Chance(0.5);
      for (NodeId u : parents) {
        if (drop_all || rng.Chance(0.6)) {
          ASSERT_TRUE(dag.RemoveEdge(u, v).ok());
        }
      }
    }

    MaintenanceDelta delta = Merge(&engine, &dag);
    ExpectStructuresMatchRecompute(dag, engine,
                                   "delete seed " + std::to_string(seed));

    // After GC, everything alive is reachable from the root.
    std::vector<NodeId> reachable = CollectDescOrSelf(dag, {dag.root()});
    EXPECT_EQ(reachable.size(), dag.num_nodes());
    for (NodeId n : delta.removed_nodes) EXPECT_FALSE(dag.alive(n));
  }
}

TEST(MergeDeleteWindow, CascadingCollection) {
  // r -> a -> b -> c; deleting edge (r, a) collects the whole chain.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(a, b);
  dag.AddEdge(b, c);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());

  ASSERT_TRUE(dag.RemoveEdge(r, a).ok());
  MaintenanceDelta delta = Merge(&engine, &dag);
  EXPECT_EQ(delta.removed_nodes, (std::vector<NodeId>{a, b, c}));
  EXPECT_EQ(delta.orphan_edges.size(), 2u);  // (a,b), (b,c)
  EXPECT_EQ(dag.num_nodes(), 1u);
  EXPECT_EQ(engine.reach().size(), 0u);
  ExpectStructuresMatchRecompute(dag, engine, "cascade");
}

TEST(MergeDeleteWindow, SharedSubtreeSurvives) {
  // Example 6's shape: the CS320 subtree is shared; deleting it from one
  // parent keeps it alive under the other and only removes reachability
  // pairs along the severed path.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId p1 = dag.GetOrAddNode("p", {Value::Int(1)});
  NodeId p2 = dag.GetOrAddNode("p", {Value::Int(2)});
  NodeId shared = dag.GetOrAddNode("s", {});
  NodeId leaf = dag.GetOrAddNode("l", {});
  dag.SetRoot(r);
  dag.AddEdge(r, p1);
  dag.AddEdge(r, p2);
  dag.AddEdge(p1, shared);
  dag.AddEdge(p2, shared);
  dag.AddEdge(shared, leaf);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  EXPECT_TRUE(engine.reach().IsAncestor(p1, leaf));

  ASSERT_TRUE(dag.RemoveEdge(p1, shared).ok());
  MaintenanceDelta delta = Merge(&engine, &dag);
  EXPECT_TRUE(delta.removed_nodes.empty());
  EXPECT_TRUE(dag.alive(shared));
  EXPECT_FALSE(engine.reach().IsAncestor(p1, shared));
  EXPECT_FALSE(engine.reach().IsAncestor(p1, leaf));
  EXPECT_TRUE(engine.reach().IsAncestor(p2, leaf));  // the other path
  ExpectStructuresMatchRecompute(dag, engine, "shared survive");
}

TEST(MergeDeleteWindow, RootNeverCollected) {
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());
  ASSERT_TRUE(dag.RemoveEdge(r, a).ok());
  Merge(&engine, &dag);
  EXPECT_TRUE(dag.alive(r));
  EXPECT_EQ(dag.num_nodes(), 1u);
  ExpectStructuresMatchRecompute(dag, engine, "root");
}

TEST(MergeCandidateGc, OldNodeReattachedUnderFreshNodeSurvives) {
  // r -> a -> x. One window cuts x from its only parent and re-attaches
  // it under a node created in the same window: x is a GC candidate,
  // and so is the fresh node, whose old parent r anchors both.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId x = dag.GetOrAddNode("x", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(a, x);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());

  NodeId f = dag.GetOrAddNode("f", {});
  dag.AddEdge(r, f);
  ASSERT_TRUE(dag.RemoveEdge(a, x).ok());
  dag.AddEdge(f, x);
  MaintenanceDelta delta = Merge(&engine, &dag);
  EXPECT_TRUE(delta.removed_nodes.empty());
  EXPECT_TRUE(dag.alive(x));
  EXPECT_TRUE(engine.reach().IsAncestor(f, x));
  EXPECT_FALSE(engine.reach().IsAncestor(a, x));
  ExpectStructuresMatchRecompute(dag, engine, "re-attached under fresh");
}

TEST(MergeCandidateGc, NodeReattachedUnderCollectedNodeIsCollected) {
  // r -> a -> b and r -> c -> x. One window cuts a off the root, cuts x
  // from its only parent c, and re-attaches x under b. b is collected
  // with a, so x, whose only parent is now b, is collected too; c stays.
  DagView dag;
  NodeId r = dag.GetOrAddNode("r", {});
  NodeId a = dag.GetOrAddNode("a", {});
  NodeId b = dag.GetOrAddNode("b", {});
  NodeId c = dag.GetOrAddNode("c", {});
  NodeId x = dag.GetOrAddNode("x", {});
  dag.SetRoot(r);
  dag.AddEdge(r, a);
  dag.AddEdge(a, b);
  dag.AddEdge(r, c);
  dag.AddEdge(c, x);
  MaintenanceEngine engine;
  ASSERT_TRUE(engine.Rebuild(dag).ok());

  ASSERT_TRUE(dag.RemoveEdge(r, a).ok());
  ASSERT_TRUE(dag.RemoveEdge(c, x).ok());
  dag.AddEdge(b, x);
  MaintenanceDelta delta = Merge(&engine, &dag);
  EXPECT_EQ(delta.removed_nodes, (std::vector<NodeId>{a, b, x}));
  EXPECT_TRUE(dag.alive(c));
  EXPECT_EQ(dag.num_nodes(), 2u);
  ExpectStructuresMatchRecompute(dag, engine, "re-attached under collected");
}

TEST(CollectDescOrSelf, BasicAndDiamond) {
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
  auto all = CollectDescOrSelf(dag, {r});
  EXPECT_EQ(all.size(), 4u);  // no duplicates despite the diamond
  auto froma = CollectDescOrSelf(dag, {a});
  EXPECT_EQ(froma.size(), 2u);
}

}  // namespace
}  // namespace xvu
