#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/delta_eval.h"
#include "src/core/evaluator.h"
#include "src/core/pipeline.h"
#include "src/core/system.h"
#include "src/dag/maintenance_engine.h"
#include "src/workload/registrar.h"
#include "src/xpath/parser.h"
#include "tests/oracles/reachability_naive.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

Value S(const char* s) { return Value::Str(s); }

Path P(const std::string& xpath) {
  auto p = ParseXPath(xpath);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

// ---------------------------------------------------------------------------
// DAG-level fuzz: random mutation batches replayed on two identical views,
// one maintained by the incremental journal merge, one by full rebuild.
// ---------------------------------------------------------------------------

/// A replayable structural mutation (so the same batch can be applied to
/// two DagView instances; node ids align because allocation order does).
struct MutOp {
  enum class Kind { kAddNode, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddNode;
  std::string type;
  Tuple attr;
  NodeId u = 0, v = 0;
};

void ApplyOps(DagView* dag, const std::vector<MutOp>& ops) {
  for (const MutOp& op : ops) {
    switch (op.kind) {
      case MutOp::Kind::kAddNode:
        dag->GetOrAddNode(op.type, op.attr);
        break;
      case MutOp::Kind::kAddEdge:
        dag->AddEdge(op.u, op.v);
        break;
      case MutOp::Kind::kRemoveEdge:
        ASSERT_TRUE(dag->RemoveEdge(op.u, op.v).ok());
        break;
    }
  }
}

/// Generates one random batch against `probe` (mutating it, so chained
/// rounds see the effects of earlier ones) and records the replayable ops.
std::vector<MutOp> RandomBatch(DagView* probe, Rng* rng, uint64_t uid_base) {
  std::vector<MutOp> ops;
  size_t count = 1 + rng->Below(8);
  for (size_t k = 0; k < count; ++k) {
    std::vector<NodeId> live = probe->LiveNodes();
    double roll = rng->NextDouble();
    if (roll < 0.35) {
      // Fresh node wired under a random live parent (sometimes a short
      // chain, exercising multi-entry insert windows).
      Tuple attr = {Value::Int(static_cast<int64_t>(uid_base + k))};
      MutOp add;
      add.kind = MutOp::Kind::kAddNode;
      add.type = "n";
      add.attr = attr;
      NodeId id = probe->GetOrAddNode(add.type, add.attr);
      ops.push_back(std::move(add));
      MutOp edge;
      edge.kind = MutOp::Kind::kAddEdge;
      edge.u = live[rng->Below(live.size())];
      edge.v = id;
      probe->AddEdge(edge.u, edge.v);
      ops.push_back(edge);
    } else if (roll < 0.6) {
      // Edge between existing nodes, skipped when it would close a cycle.
      NodeId u = live[rng->Below(live.size())];
      NodeId v = live[rng->Below(live.size())];
      if (u == v || probe->HasEdge(u, v)) continue;
      Reachability naive = NaiveReachability(*probe);
      if (v == u || naive.IsAncestor(v, u) || v == probe->root()) continue;
      MutOp edge;
      edge.kind = MutOp::Kind::kAddEdge;
      edge.u = u;
      edge.v = v;
      probe->AddEdge(u, v);
      ops.push_back(edge);
    } else {
      // Remove a random existing edge (possibly orphaning a region, which
      // both strategies must garbage-collect identically).
      NodeId u = live[rng->Below(live.size())];
      if (probe->children(u).empty()) continue;
      NodeId v = probe->children(u)[rng->Below(probe->children(u).size())];
      MutOp edge;
      edge.kind = MutOp::Kind::kRemoveEdge;
      edge.u = u;
      edge.v = v;
      EXPECT_TRUE(probe->RemoveEdge(u, v).ok());
      ops.push_back(edge);
    }
  }
  return ops;
}

TEST(MaintenanceEngineFuzz, IncrementalMergeMatchesFullRebuild) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    DagView inc_dag = RandomDag(60, 0.3, seed);
    DagView full_dag = RandomDag(60, 0.3, seed);
    ASSERT_EQ(inc_dag.CanonicalEdges(), full_dag.CanonicalEdges());

    MaintenanceEngine inc_engine, full_engine;
    ASSERT_TRUE(inc_engine.Rebuild(inc_dag).ok());
    ASSERT_TRUE(full_engine.Rebuild(full_dag).ok());

    Rng rng(seed * 1009);
    DagView probe = inc_dag;
    for (int round = 0; round < 12; ++round) {
      uint64_t uid_base =
          1000000 + seed * 10000 + static_cast<uint64_t>(round) * 100;
      std::vector<MutOp> ops = RandomBatch(&probe, &rng, uid_base);
      ApplyOps(&inc_dag, ops);
      ApplyOps(&full_dag, ops);

      MaintenanceEngine::BatchOptions inc_opts, full_opts;
      inc_opts.strategy = MaintenanceStrategy::kIncrementalMerge;
      full_opts.strategy = MaintenanceStrategy::kFullRebuild;
      MaintenanceEngine::BatchReport inc_report, full_report;
      ASSERT_TRUE(
          inc_engine.MaintainBatch(&inc_dag, inc_opts, &inc_report).ok());
      ASSERT_TRUE(
          full_engine.MaintainBatch(&full_dag, full_opts, &full_report).ok());
      ASSERT_EQ(inc_report.used, MaintenanceStrategy::kIncrementalMerge)
          << "journal window must be covered in this fuzz";
      if (!ops.empty()) {
        EXPECT_GT(inc_report.journal_entries_replayed, 0u);
      }

      std::string ctx = "seed " + std::to_string(seed) + " round " +
                        std::to_string(round);
      // (a) Identical view after identical mutations + GC.
      ASSERT_EQ(inc_dag.CanonicalEdges(), full_dag.CanonicalEdges()) << ctx;
      ASSERT_EQ(inc_dag.num_nodes(), full_dag.num_nodes()) << ctx;
      // (b) Full-matrix compare: merged M == rebuilt M == naive oracle.
      ASSERT_TRUE(inc_engine.reach() == full_engine.reach()) << ctx;
      ASSERT_TRUE(inc_engine.reach() == NaiveReachability(inc_dag))
          << ctx;
      // (c) L bit-identical (the merge re-derives it with the same Kahn
      // pass) and valid.
      ASSERT_EQ(inc_engine.topo().order(), full_engine.topo().order()) << ctx;
      ASSERT_TRUE(inc_engine.topo().Check(inc_dag).ok()) << ctx;
      // (d) Reported ∆M pairs agree with the final matrix.
      for (const auto& [a, d] : inc_report.delta.m_inserted) {
        EXPECT_TRUE(inc_engine.reach().IsAncestor(a, d)) << ctx;
      }
      for (const auto& [a, d] : inc_report.delta.m_deleted) {
        EXPECT_FALSE(inc_engine.reach().IsAncestor(a, d)) << ctx;
      }
      // (e) Evaluation order is canonical: sorted rows make every walk of
      // M independent of the mutation history that built it, so the
      // maintained and the rebuilt M yield identical vectors, order
      // included, over the same DAG.
      XPathEvaluator on_inc(&inc_dag, &inc_engine.reach());
      XPathEvaluator on_full(&inc_dag, &full_engine.reach());
      for (const char* xp : {"//a", "//b//n", "//*[a]//b", "//a[not(b)]//*"}) {
        auto a = on_inc.Evaluate(P(xp));
        auto b = on_full.Evaluate(P(xp));
        ASSERT_TRUE(a.ok() && b.ok()) << ctx << " " << xp;
        EXPECT_EQ(a->selected, b->selected) << ctx << " " << xp;
        EXPECT_EQ(a->parent_edges, b->parent_edges) << ctx << " " << xp;
        EXPECT_EQ(a->side_effect_nodes, b->side_effect_nodes)
            << ctx << " " << xp;
      }
      // GC must keep the probe aligned with the maintained views.
      probe = inc_dag;
    }
  }
}

// ---------------------------------------------------------------------------
// System-level fuzz: identical random update batches through ApplyBatch on
// two UpdateSystems that differ only in the forced maintenance strategy.
// ---------------------------------------------------------------------------

std::unique_ptr<UpdateSystem> MakeSystem(MaintenanceStrategy strategy) {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  UpdateSystem::Options options;
  options.maintenance = strategy;
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  return std::move(*sys);
}

TEST(MaintenanceEngineFuzz, StrategiesAgreeThroughApplyBatch) {
  auto inc = MakeSystem(MaintenanceStrategy::kIncrementalMerge);
  auto full = MakeSystem(MaintenanceStrategy::kFullRebuild);
  const char* kCnos[] = {"CS650", "CS320", "CS240", "CS140"};

  Rng rng(4242);
  std::vector<std::string> inserted_ssns;
  int64_t uid = 100;
  for (int round = 0; round < 25; ++round) {
    UpdateBatch batch;
    size_t count = 1 + rng.Below(3);
    for (size_t k = 0; k < count; ++k) {
      if (!inserted_ssns.empty() && rng.Chance(0.3)) {
        size_t at = rng.Below(inserted_ssns.size());
        batch.Delete(P("//student[ssn=\"" + inserted_ssns[at] + "\"]"));
        inserted_ssns.erase(inserted_ssns.begin() +
                            static_cast<std::ptrdiff_t>(at));
      } else {
        std::string ssn = "S" + std::to_string(uid++);
        const char* cno = kCnos[rng.Below(4)];
        batch.Insert("student", {S(ssn.c_str()), S("Fuzz")},
                     P(std::string("//course[cno=\"") + cno + "\"]/takenBy"));
        inserted_ssns.push_back(ssn);
      }
    }
    Status inc_st = inc->ApplyBatch(batch);
    Status full_st = full->ApplyBatch(batch);
    ASSERT_EQ(inc_st.ok(), full_st.ok())
        << inc_st.ToString() << " vs " << full_st.ToString();
    if (!inc_st.ok()) continue;
    ASSERT_EQ(inc->last_stats().maintenance_strategy,
              MaintenanceStrategy::kIncrementalMerge);
    ASSERT_EQ(full->last_stats().maintenance_strategy,
              MaintenanceStrategy::kFullRebuild);

    std::string ctx = "round " + std::to_string(round);
    ASSERT_EQ(inc->dag().CanonicalEdges(), full->dag().CanonicalEdges())
        << ctx;
    ASSERT_TRUE(inc->reachability() == full->reachability()) << ctx;
    ASSERT_EQ(inc->topo().order(), full->topo().order()) << ctx;
    // Both agree with recomputation from the incrementally maintained DAG.
    auto topo = TopoOrder::Compute(inc->dag());
    ASSERT_TRUE(topo.ok()) << ctx;
    ASSERT_TRUE(inc->reachability() ==
                Reachability::Compute(inc->dag(), *topo))
        << ctx;
  }
}

// ---------------------------------------------------------------------------
// Cache-patch fuzz: after random insert-only batches, every cached traced
// evaluation patched through the journal must equal a fresh evaluation.
// ---------------------------------------------------------------------------

void ExpectSameEval(const EvalResult& a, const EvalResult& b,
                    const std::string& ctx) {
  auto sorted = [](std::vector<NodeId> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  auto sorted_pairs = [](std::vector<std::pair<NodeId, NodeId>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a.selected), sorted(b.selected)) << ctx;
  EXPECT_EQ(sorted_pairs(a.parent_edges), sorted_pairs(b.parent_edges))
      << ctx;
  EXPECT_EQ(sorted(a.side_effect_nodes), sorted(b.side_effect_nodes)) << ctx;
}

TEST(DeltaEvalFuzz, PatchedCacheEntriesMatchFreshEvaluation) {
  const std::vector<std::string> kPaths = {
      "//student",
      "//student[ssn=\"S01\"]",
      "//course[cno=\"CS320\"]/takenBy/student",
      "course/takenBy/student",
      "//takenBy/student",
      "course[cno=\"CS650\"]/prereq//student",
      "//course[prereq/course[cno=\"CS140\"]]/takenBy",
      "course/*",
      "//course[takenBy/student]/prereq",
  };
  auto sys = MakeSystem(MaintenanceStrategy::kAuto);
  const char* kCnos[] = {"CS650", "CS320", "CS240", "CS140"};
  Rng rng(99);
  int64_t uid = 5000;

  for (int round = 0; round < 12; ++round) {
    // Snapshot traced evaluations of every pool path.
    XPathEvaluator evaluator(&sys->dag(), &sys->reachability());
    uint64_t v0 = sys->dag().version();
    std::vector<CachedEval> cached;
    for (const std::string& xp : kPaths) {
      auto traced = evaluator.EvaluateTraced(P(xp));
      ASSERT_TRUE(traced.ok()) << xp;
      ASSERT_TRUE(PathIsMonotone(traced->np)) << xp;
      cached.push_back(std::move(*traced));
    }

    // Random insert-only batch (additions-only journal window).
    UpdateBatch batch;
    size_t count = 1 + rng.Below(4);
    for (size_t k = 0; k < count; ++k) {
      std::string ssn = "S" + std::to_string(uid++);
      const char* cno = kCnos[rng.Below(4)];
      batch.Insert("student", {S(ssn.c_str()), S("Patch")},
                   P(std::string("//course[cno=\"") + cno + "\"]/takenBy"));
    }
    ASSERT_TRUE(sys->ApplyBatch(batch).ok());

    ASSERT_TRUE(sys->dag().JournalCovers(v0));
    std::vector<DagDelta> window = sys->dag().JournalSince(v0);
    XPathEvaluator fresh_eval(&sys->dag(), &sys->reachability());
    for (size_t i = 0; i < kPaths.size(); ++i) {
      std::string ctx =
          "round " + std::to_string(round) + " path " + kPaths[i];
      ASSERT_TRUE(
          TryPatchEval(sys->dag(), sys->reachability(), window, &cached[i]))
          << ctx << ": insert-only window must be patchable";
      auto fresh = fresh_eval.EvaluateTraced(P(kPaths[i]));
      ASSERT_TRUE(fresh.ok()) << ctx;
      ExpectSameEval(cached[i].result, fresh->result, ctx);
      // The patched trace itself must equal the fresh forward pass.
      ASSERT_EQ(cached[i].reached.size(), fresh->reached.size()) << ctx;
      for (size_t s = 0; s < cached[i].reached.size(); ++s) {
        auto pa = cached[i].reached[s].items;
        auto fb = fresh->reached[s].items;
        std::sort(pa.begin(), pa.end());
        std::sort(fb.begin(), fb.end());
        EXPECT_EQ(pa, fb) << ctx << " step " << s;
      }
    }
  }
}

TEST(DeltaEval, GeneralPatcherCoversRemovalWindowsAndNegation) {
  auto sys = MakeSystem(MaintenanceStrategy::kAuto);
  XPathEvaluator evaluator(&sys->dag(), &sys->reachability());
  uint64_t v0 = sys->dag().version();
  auto traced = evaluator.EvaluateTraced(P("//student"));
  ASSERT_TRUE(traced.ok());
  CachedEval entry = std::move(*traced);

  // Deletion window: the exact general patcher subtracts the removed
  // cone, matching a fresh evaluation bit-for-bit (as node sets).
  ASSERT_TRUE(sys->ApplyDelete(P("//student[ssn=\"S03\"]")).ok());
  std::vector<DagDelta> window = sys->dag().JournalSince(v0);
  XPathEvaluator after_del(&sys->dag(), &sys->reachability());
  EXPECT_TRUE(TryPatchEval(sys->dag(), sys->reachability(), window, &entry));
  auto fresh = after_del.EvaluateTraced(P("//student"));
  ASSERT_TRUE(fresh.ok());
  ExpectSameEval(entry.result, fresh->result, "deletion window");

  // Negated filter: not monotone, so even an addition-only window takes
  // the general patcher — whose per-node filter evaluation is exact, so
  // members flip in both directions correctly.
  uint64_t v1 = sys->dag().version();
  XPathEvaluator ev2(&sys->dag(), &sys->reachability());
  auto neg = ev2.EvaluateTraced(P("//course[not(takenBy)]"));
  ASSERT_TRUE(neg.ok());
  EXPECT_FALSE(PathIsMonotone(neg->np));
  CachedEval neg_entry = std::move(*neg);
  ASSERT_TRUE(sys->ApplyInsert("student", {S("S90"), S("Neg")},
                               P("//course[cno=\"CS650\"]/takenBy"))
                  .ok());
  XPathEvaluator ev3(&sys->dag(), &sys->reachability());
  EXPECT_TRUE(TryPatchEval(sys->dag(), sys->reachability(),
                           sys->dag().JournalSince(v1), &neg_entry));
  auto neg_fresh = ev3.EvaluateTraced(P("//course[not(takenBy)]"));
  ASSERT_TRUE(neg_fresh.ok());
  ExpectSameEval(neg_entry.result, neg_fresh->result, "negated filter");

  // Still refused: a traceless entry, and an oversized window.
  CachedEval no_trace;
  no_trace.np = neg_entry.np;
  EXPECT_FALSE(TryPatchEval(sys->dag(), sys->reachability(),
                            sys->dag().JournalSince(v1), &no_trace));
}

TEST(DeltaEvalFuzz, PatchedEntriesMatchFreshEvaluationAcrossDeletions) {
  // Satellite of the removal-window patcher: randomized mixed
  // insert/delete batches, every pool path (including a non-monotone
  // one) patched across each window and compared against a fresh
  // evaluation — patched == fresh, always.
  const std::vector<std::string> kPaths = {
      "//student",
      "//student[ssn=\"S01\"]",
      "//course[cno=\"CS320\"]/takenBy/student",
      "course/takenBy/student",
      "//takenBy/student",
      "course[cno=\"CS650\"]/prereq//student",
      "//course[prereq/course[cno=\"CS140\"]]/takenBy",
      "//course[not(takenBy)]",
      "//course[takenBy/student]/prereq",
  };
  auto sys = MakeSystem(MaintenanceStrategy::kAuto);
  const char* kCnos[] = {"CS650", "CS320", "CS240", "CS140"};
  Rng rng(1234);
  int64_t uid = 7000;
  std::vector<std::string> alive;  // ssns inserted and not yet deleted

  for (int round = 0; round < 16; ++round) {
    XPathEvaluator evaluator(&sys->dag(), &sys->reachability());
    uint64_t v0 = sys->dag().version();
    std::vector<CachedEval> cached;
    for (const std::string& xp : kPaths) {
      auto traced = evaluator.EvaluateTraced(P(xp));
      ASSERT_TRUE(traced.ok()) << xp;
      cached.push_back(std::move(*traced));
    }

    // Mixed batch: some fresh inserts, some deletions of earlier
    // inserts (distinct targets — double-deletes are batch conflicts).
    UpdateBatch batch;
    // Deletions target only students present BEFORE this batch (an op's
    // path evaluates against the snapshot, so a same-batch insert is not
    // selectable yet).
    size_t deletes = round == 0 ? 0 : 1 + rng.Below(2);
    for (size_t k = 0; k < deletes && !alive.empty(); ++k) {
      size_t pick = rng.Below(alive.size());
      batch.Delete(P("//student[ssn=\"" + alive[pick] + "\"]"));
      alive.erase(alive.begin() + static_cast<ptrdiff_t>(pick));
    }
    size_t inserts = 1 + rng.Below(3);
    for (size_t k = 0; k < inserts; ++k) {
      std::string ssn = "S" + std::to_string(uid++);
      const char* cno = kCnos[rng.Below(4)];
      batch.Insert("student", {S(ssn.c_str()), S("Churn")},
                   P(std::string("//course[cno=\"") + cno + "\"]/takenBy"));
      alive.push_back(ssn);
    }
    ASSERT_TRUE(sys->ApplyBatch(batch).ok());

    ASSERT_TRUE(sys->dag().JournalCovers(v0));
    std::vector<DagDelta> window = sys->dag().JournalSince(v0);
    XPathEvaluator fresh_eval(&sys->dag(), &sys->reachability());
    for (size_t i = 0; i < kPaths.size(); ++i) {
      std::string ctx =
          "round " + std::to_string(round) + " path " + kPaths[i];
      ASSERT_TRUE(
          TryPatchEval(sys->dag(), sys->reachability(), window, &cached[i]))
          << ctx << ": removal window must be patchable";
      auto fresh = fresh_eval.EvaluateTraced(P(kPaths[i]));
      ASSERT_TRUE(fresh.ok()) << ctx;
      ExpectSameEval(cached[i].result, fresh->result, ctx);
      ASSERT_EQ(cached[i].reached.size(), fresh->reached.size()) << ctx;
      for (size_t s = 0; s < cached[i].reached.size(); ++s) {
        auto pa = cached[i].reached[s].items;
        auto fb = fresh->reached[s].items;
        std::sort(pa.begin(), pa.end());
        std::sort(fb.begin(), fb.end());
        EXPECT_EQ(pa, fb) << ctx << " step " << s;
      }
    }
  }
}

}  // namespace
}  // namespace xvu
