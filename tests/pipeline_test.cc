#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/core/system.h"
#include "src/workload/registrar.h"
#include "src/workload/synthetic.h"
#include "src/xpath/normal_form.h"
#include "src/xpath/parser.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

Value S(const char* s) { return Value::Str(s); }

std::unique_ptr<UpdateSystem> MakeSystem(
    UpdateSystem::Options options = UpdateSystem::Options()) {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), options);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  return std::move(*sys);
}

/// After an accepted batch: the incrementally maintained DAG must equal a
/// republication from the updated base, and M/L must match recomputation.
void ExpectConsistent(UpdateSystem& sys) {
  auto fresh = sys.Republish();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(sys.dag().CanonicalEdges(), fresh->CanonicalEdges())
      << "batched view diverged from σ(∆R(I))";
  EXPECT_TRUE(sys.topo().Check(sys.dag()).ok());
  auto topo = TopoOrder::Compute(sys.dag());
  ASSERT_TRUE(topo.ok());
  EXPECT_TRUE(sys.reachability() == Reachability::Compute(sys.dag(), *topo));
}

/// Every base table of `a` holds exactly the rows of its peer in `b`.
void ExpectSameDatabase(const Database& a, const Database& b) {
  ASSERT_EQ(a.TableNames(), b.TableNames());
  EXPECT_EQ(a.TotalRows(), b.TotalRows());
  for (const std::string& name : a.TableNames()) {
    const Table* ta = a.GetTable(name);
    const Table* tb = b.GetTable(name);
    ta->ForEach([&](const Tuple& row) {
      const Tuple* found = tb->FindByKey(tb->schema().KeyOf(row));
      ASSERT_NE(found, nullptr) << name << TupleToString(row);
      EXPECT_EQ(*found, row) << name;
    });
  }
}

Path P(const std::string& xpath) {
  auto p = ParseXPath(xpath);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(PathEvalCache, HitMissAndInvalidationAcrossVersions) {
  PathEvalCache cache;
  EvalResult r;
  r.selected = {1, 2, 3};
  EXPECT_EQ(cache.Lookup("//a", 7), nullptr);  // cold miss
  cache.Store("//a", 7, r);
  const EvalResult* hit = cache.Lookup("//a", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->selected, r.selected);
  // Same key at a newer DAG version: the stale entry is evicted.
  EXPECT_EQ(cache.Lookup("//a", 8), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Pipeline, NormalFormKeyIsSyntaxInsensitive) {
  // ε-steps and filter splitting normalize away: both spellings share one
  // cache slot.
  EXPECT_EQ(NormalFormKey(P("//student[ssn=\"S01\"]")),
            NormalFormKey(P(".///student[ssn=\"S01\"]")));
  EXPECT_NE(NormalFormKey(P("//student[ssn=\"S01\"]")),
            NormalFormKey(P("//student[ssn=\"S02\"]")));
}

TEST(Pipeline, EmptyBatchIsANoOp) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  EXPECT_TRUE(sys->ApplyBatch(UpdateBatch()).ok());
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, SharedPathEvaluatesOnceAndMaintainsOnce) {
  auto sys = MakeSystem();
  const size_t n = 8;
  UpdateBatch batch;
  for (size_t i = 0; i < n; ++i) {
    std::string ssn = "S9" + std::to_string(i);
    batch.Insert("student", {S(ssn.c_str()), S("Batch Student")},
                 P("course[cno=\"CS650\"]/takenBy"));
  }
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const UpdateStats& us = sys->last_stats();
  EXPECT_EQ(us.batch_ops, n);
  EXPECT_EQ(us.distinct_paths, 1u);
  EXPECT_EQ(us.xpath_evaluations, 1u);
  EXPECT_EQ(us.xpath_cache_hits, n - 1);
  EXPECT_EQ(us.maintenance_passes, 1u);
  // All n students landed under CS650's takenBy.
  auto q = sys->Query("course[cno=\"CS650\"]/takenBy/student");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->selected.size(), 1u + n);  // S01 + the batch
  ExpectConsistent(*sys);
}

TEST(Pipeline, BatchedEqualsSequentialOnIndependentOps) {
  auto batched = MakeSystem();
  auto sequential = MakeSystem();

  UpdateBatch batch;
  batch.Insert("course", {S("CS100"), S("Intro")},
               P("course[cno=\"CS240\"]/prereq"));
  batch.Insert("student", {S("S07"), S("Grace Hopper")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Delete(P("//student[ssn=\"S03\"]"));
  Status st = batched->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_TRUE(sequential
                  ->ApplyInsert("course", {S("CS100"), S("Intro")},
                                P("course[cno=\"CS240\"]/prereq"))
                  .ok());
  ASSERT_TRUE(sequential
                  ->ApplyInsert("student", {S("S07"), S("Grace Hopper")},
                                P("course[cno=\"CS650\"]/takenBy"))
                  .ok());
  ASSERT_TRUE(
      sequential->ApplyDelete(P("//student[ssn=\"S03\"]")).ok());

  EXPECT_EQ(batched->dag().CanonicalEdges(),
            sequential->dag().CanonicalEdges());
  ExpectSameDatabase(batched->database(), sequential->database());
  ExpectConsistent(*batched);
}

TEST(Pipeline, MixedBatchDeletesAndInsertsAtomically) {
  auto sys = MakeSystem();
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sys->last_stats().maintenance_passes, 1u);
  auto gone = sys->Query("//student[ssn=\"S02\"]");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->selected.empty());
  auto added = sys->Query("course[cno=\"CS240\"]/takenBy/student");
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added->selected.size(), 1u);  // S02 replaced by S08
  ExpectConsistent(*sys);
}

TEST(Pipeline, CacheIsDeltaPatchedAcrossDagVersions) {
  auto sys = MakeSystem();
  UpdateBatch b1;
  b1.Insert("student", {S("S07"), S("Grace")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b1).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 1u);

  // Same path again: b1 mutated the DAG with additions only, so the
  // cached node-set is patched forward through the ∆V journal instead of
  // being invalidated and re-evaluated.
  UpdateBatch b2;
  b2.Insert("student", {S("S08"), S("Edsger")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b2).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().delta_patches, 1u);
  EXPECT_EQ(sys->last_stats().xpath_cache_hits, 0u);
  EXPECT_GE(sys->eval_cache().stats().delta_patches, 1u);
  ExpectConsistent(*sys);

  // A rejected batch leaves the DAG untouched; resubmitting reuses its
  // cached evaluation as an exact hit.
  UpdateBatch rejected;
  rejected.Delete(P("//student[ssn=\"NOPE\"]"));
  EXPECT_FALSE(sys->ApplyBatch(rejected).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 1u);
  EXPECT_FALSE(sys->ApplyBatch(rejected).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().xpath_cache_hits, 1u);
}

TEST(Pipeline, DeletionWindowsAreDeltaPatched) {
  auto sys = MakeSystem();
  UpdateBatch b1;
  b1.Insert("student", {S("S07"), S("Grace")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b1).ok());

  // A deletion makes the journal window non-monotone; the general
  // patcher subtracts the exact cone instead of re-evaluating, so the
  // cached entry for the insert path survives the window.
  UpdateBatch b2;
  b2.Delete(P("//student[ssn=\"S03\"]"));
  ASSERT_TRUE(sys->ApplyBatch(b2).ok());

  UpdateBatch b3;
  b3.Insert("student", {S("S09"), S("Barbara")},
            P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(sys->ApplyBatch(b3).ok());
  EXPECT_EQ(sys->last_stats().xpath_evaluations, 0u);
  EXPECT_EQ(sys->last_stats().delta_patches, 1u);
  EXPECT_EQ(sys->last_stats().fallback_evals, 0u);
  ExpectConsistent(*sys);
}

TEST(Pipeline, SnapshotVersionTracksTheReadEpochInvariant) {
  // UpdateStats::snapshot_version is the pre-write dag version the batch
  // evaluated against. After a committed write the maintenance cursor,
  // the dag version, and the published read epoch all coincide — and sit
  // strictly past the recorded snapshot_version.
  auto sys = MakeSystem();
  for (int i = 0; i < 3; ++i) {
    const uint64_t pre = sys->dag().version();
    UpdateBatch batch;
    batch.Insert("student", {S(("S8" + std::to_string(i)).c_str()), S("V")},
                 P("course[cno=\"CS650\"]/takenBy"));
    if (i > 0) batch.Delete(P("//student[ssn=\"S8" + std::to_string(i - 1) +
                              "\"]"));
    ASSERT_TRUE(sys->ApplyBatch(batch).ok());

    EXPECT_EQ(sys->last_stats().snapshot_version, pre);
    EXPECT_EQ(sys->maintenance_engine().maintained_version(),
              sys->dag().version());
    EXPECT_EQ(sys->read_epoch(), sys->dag().version());
    EXPECT_GT(sys->dag().version(), sys->last_stats().snapshot_version);
  }

  // The per-op entry points record the same invariant.
  const uint64_t pre_op = sys->dag().version();
  ASSERT_TRUE(sys->ApplyInsert("student", {S("S99"), S("Op")},
                               P("course[cno=\"CS240\"]/takenBy"))
                  .ok());
  EXPECT_EQ(sys->last_stats().snapshot_version, pre_op);
  EXPECT_EQ(sys->read_epoch(), sys->dag().version());
  EXPECT_GT(sys->read_epoch(), pre_op);

  // A rejected batch rewinds: version, cursor and epoch all return to
  // the recorded snapshot_version.
  const uint64_t pre_bad = sys->dag().version();
  UpdateBatch bad;
  bad.Delete(P("//student[ssn=\"S99\"]"));
  bad.Delete(P("//student[ssn=\"S99\"]"));
  ASSERT_FALSE(sys->ApplyBatch(bad).ok());
  EXPECT_EQ(sys->last_stats().snapshot_version, pre_bad);
  EXPECT_EQ(sys->dag().version(), pre_bad);
  EXPECT_EQ(sys->read_epoch(), pre_bad);
  EXPECT_EQ(sys->maintenance_engine().maintained_version(), pre_bad);
}

TEST(Pipeline, RejectsDoubleDeleteOfSameEdge) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Delete(P("//student[ssn=\"S02\"]"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, RejectsInsertIntoDeletedSubtree) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  UpdateBatch batch;
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"));
  batch.Insert("student", {S("S07"), S("Grace")},
               P("//course[cno=\"CS320\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, RejectsDeleteInsideDeletedSubtree) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  UpdateBatch batch;
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"));
  batch.Delete(P("course[cno=\"CS650\"]/prereq/course[cno=\"CS320\"]"
                 "/prereq/course[cno=\"CS140\"]"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
}

TEST(Pipeline, RejectsDuplicateInsertRows) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, OneBadOpRejectsTheWholeBatch) {
  auto sys = MakeSystem();
  auto before = sys->dag().CanonicalEdges();
  size_t rows_before = sys->database().TotalRows();
  UpdateBatch batch;
  batch.Insert("student", {S("S07"), S("Grace")},
               P("course[cno=\"CS650\"]/takenBy"));
  batch.Delete(P("//student[ssn=\"NOPE\"]"));  // selects nothing
  Status st = sys->ApplyBatch(batch);
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_EQ(sys->dag().CanonicalEdges(), before);
  EXPECT_EQ(sys->database().TotalRows(), rows_before);
}

TEST(Pipeline, TextualStatementsViaAdd) {
  auto sys = MakeSystem();
  UpdateBatch batch;
  ASSERT_TRUE(batch
                  .Add("insert student(S07, \"Grace Hopper\") into "
                       "course[cno=\"CS650\"]/takenBy",
                       sys->atg())
                  .ok());
  ASSERT_TRUE(batch.Add("delete //student[ssn=\"S03\"]", sys->atg()).ok());
  Status st = sys->ApplyBatch(batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectConsistent(*sys);
}

// A rejection that is correct, pinned down with its reason. On the
// default |C| = 2000 synthetic dataset, C 1555 passes the C-F filter and
// has no H children. A batch inserts two leaves under it; a second batch
// deletes both. Algorithm delete removes F(1555), the one source both
// edges share whose loss has no other effect, and leaves H(1555, x) and
// CU(x) in place. Every later insertion under that parent needs F(1555)
// back, and re-inserting it re-joins those rows: the deleted leaves would
// reappear in edge_sub_C. No insertion-only ∆R avoids that, so the insert
// must be rejected, and the rejection must leave the state untouched.
TEST(Pipeline, ReinsertUnderParentEmptiedByDeleteIsRejected) {
  SyntheticSpec spec;
  spec.num_c = 2000;
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto created = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  UpdateSystem& sys = **created;
  const Tuple parent = {Value::Int(1555)};
  auto apply = [&](const std::vector<std::string>& stmts) {
    UpdateBatch batch;
    for (const std::string& stmt : stmts) {
      Status st = batch.Add(stmt, sys.atg());
      if (!st.ok()) return st;
    }
    return sys.ApplyBatch(batch);
  };
  auto base_has = [&](const char* table, const Tuple& key) {
    return sys.database().GetTable(table)->FindByKey(key) != nullptr;
  };
  ASSERT_TRUE(base_has("F", parent));

  const std::string under = "C[cid=\"1555\"]/sub";
  Status st = apply({"insert C(900001, 1) into " + under,
                     "insert C(900002, 2) into " + under});
  ASSERT_TRUE(st.ok()) << st.ToString();
  st = apply({"delete " + under + "/C[cid=\"900001\"]",
              "delete " + under + "/C[cid=\"900002\"]"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectConsistent(sys);
  EXPECT_FALSE(base_has("F", parent));
  for (int64_t leaf : {900001, 900002}) {
    EXPECT_TRUE(base_has("H", {Value::Int(1555), Value::Int(leaf)})) << leaf;
    EXPECT_TRUE(base_has("CU", {Value::Int(leaf)})) << leaf;
  }

  const std::string before =
      testing_util::StripCache(sys.DebugFingerprint());
  st = apply({"insert C(900003, 3) into " + under});
  ASSERT_TRUE(st.IsRejected()) << st.ToString();
  EXPECT_NE(st.message().find("certain side effect: view edge_sub_C would "
                              "gain unrequested row"),
            std::string::npos)
      << st.ToString();
  EXPECT_TRUE(st.message().find("900001") != std::string::npos ||
              st.message().find("900002") != std::string::npos)
      << st.ToString();
  // Only the eval cache may differ: the rejected batch keeps its forward
  // patch of C[cid="1555"]/sub's entry (PathEvalCache::RollbackScope).
  // EXPECT_TRUE, not EXPECT_EQ: a mismatch would print megabytes.
  EXPECT_TRUE(testing_util::StripCache(sys.DebugFingerprint()) == before);
}

}  // namespace
}  // namespace xvu
