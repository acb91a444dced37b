#include <gtest/gtest.h>

#include <unordered_set>

#include "src/core/system.h"
#include "src/workload/synthetic.h"
#include "src/workload/workloads.h"

namespace xvu {
namespace {

SyntheticSpec SmallSpec() {
  SyntheticSpec spec;
  spec.num_c = 120;
  spec.payload_domain = 10;
  spec.seed = 11;
  return spec;
}

TEST(Synthetic, GeneratorShape) {
  SyntheticSpec spec = SmallSpec();
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->GetTable("C")->size(), spec.num_c);
  EXPECT_EQ(db->GetTable("F")->size(), spec.num_c);
  // Every id in [2, universe] has 1 + Bernoulli(share_prob) parents.
  EXPECT_GE(db->GetTable("H")->size(), spec.num_c - 1);
  const double cu_rows = static_cast<double>(db->GetTable("CU")->size());
  EXPECT_LE(db->GetTable("H")->size(),
            static_cast<size_t>(cu_rows * (1.0 + spec.share_prob) * 1.2));
  EXPECT_GE(db->GetTable("CU")->size(), spec.num_c);
  // h1 < h2 everywhere (acyclicity), h2 within the universe.
  int64_t universe = static_cast<int64_t>(db->GetTable("CU")->size());
  db->GetTable("H")->ForEach([&](const Tuple& row) {
    EXPECT_LT(row[0].as_int(), row[1].as_int());
    EXPECT_LE(row[1].as_int(), universe);
  });
}

TEST(Synthetic, PublishesDagWithSharing) {
  SyntheticSpec spec = SmallSpec();
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok()) << atg.status().ToString();
  ASSERT_TRUE(atg->Validate(*db).ok());
  EXPECT_TRUE(atg->dtd().IsRecursive());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const DagView& dag = (*sys)->dag();
  // Compression: the tree expansion is strictly larger than the DAG
  // whenever any C node has several parents.
  EXPECT_GT(dag.UncompressedTreeSize(), dag.num_nodes());
  size_t shared = 0, c_nodes = 0;
  for (NodeId v : dag.LiveNodes()) {
    if (dag.node(v).type != "C") continue;
    ++c_nodes;
    if (dag.parents(v).size() > 1) ++shared;
  }
  EXPECT_GE(c_nodes, spec.num_c);
  EXPECT_GT(shared, 0u);  // the 31.4%-style sharing of Fig.10
}

TEST(Synthetic, RecursiveQueriesWork) {
  auto db = MakeSyntheticDatabase(SmallSpec());
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok());
  auto all_c = (*sys)->Query("//C");
  ASSERT_TRUE(all_c.ok());
  EXPECT_GE(all_c->selected.size(), 120u);
  auto deep = (*sys)->Query("//C/sub/C/sub/C");
  ASSERT_TRUE(deep.ok());
  // The recursion is deep enough for 3 levels at this size.
  EXPECT_FALSE(deep->selected.empty());
}

TEST(Synthetic, DeletionWorkloadsApplyAndStayConsistent) {
  auto db = MakeSyntheticDatabase(SmallSpec());
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  for (WorkloadClass cls :
       {WorkloadClass::kW1, WorkloadClass::kW2, WorkloadClass::kW3}) {
    auto db_copy = db->Clone();
    auto stmts = MakeDeletionWorkload(cls, db_copy, 5, 42);
    ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
    auto atg2 = MakeSyntheticAtg(db_copy);
    ASSERT_TRUE(atg2.ok());
    auto sys = UpdateSystem::Create(std::move(*atg2), std::move(db_copy));
    ASSERT_TRUE(sys.ok());
    size_t accepted = 0;
    for (const std::string& stmt : *stmts) {
      Status st = (*sys)->ApplyStatement(stmt);
      if (st.ok()) {
        ++accepted;
      } else {
        EXPECT_TRUE(st.IsRejected()) << stmt << ": " << st.ToString();
      }
    }
    EXPECT_GT(accepted, 0u) << WorkloadClassName(cls);
    auto fresh = (*sys)->Republish();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ((*sys)->dag().CanonicalEdges(), fresh->CanonicalEdges())
        << WorkloadClassName(cls);
  }
}

TEST(Synthetic, InsertionWorkloadsApplyAndStayConsistent) {
  auto db = MakeSyntheticDatabase(SmallSpec());
  ASSERT_TRUE(db.ok());
  for (WorkloadClass cls :
       {WorkloadClass::kW1, WorkloadClass::kW2, WorkloadClass::kW3}) {
    auto db_copy = db->Clone();
    auto stmts = MakeInsertionWorkload(cls, db_copy, 6, 43);
    ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
    auto atg2 = MakeSyntheticAtg(db_copy);
    ASSERT_TRUE(atg2.ok());
    auto sys = UpdateSystem::Create(std::move(*atg2), std::move(db_copy));
    ASSERT_TRUE(sys.ok());
    size_t accepted = 0, sat_used = 0;
    for (const std::string& stmt : *stmts) {
      Status st = (*sys)->ApplyStatement(stmt);
      if (st.ok()) {
        ++accepted;
        if ((*sys)->last_stats().used_sat) ++sat_used;
      } else {
        EXPECT_TRUE(st.IsRejected()) << stmt << ": " << st.ToString();
      }
      auto fresh = (*sys)->Republish();
      ASSERT_TRUE(fresh.ok());
      ASSERT_EQ((*sys)->dag().CanonicalEdges(), fresh->CanonicalEdges())
          << stmt;
    }
    EXPECT_GT(accepted, 0u) << WorkloadClassName(cls);
  }
}

TEST(Synthetic, BuddyInsertExercisesSat) {
  // Hand-pick a K-less parent whose group tags are uniform: the buddy
  // insertion must be accepted via the SAT path, and the complement tag
  // chosen for the new K row.
  SyntheticSpec spec = SmallSpec();
  spec.k_coverage = 0.0;     // no parent has a K row
  spec.g_uniform_prob = 1.0; // every group uniform -> always satisfiable
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok());
  Status st = (*sys)->ApplyStatement(
      "insert B(999999) into //C[cid=\"5\"]/buddies");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE((*sys)->last_stats().used_sat);
  // K(5) now exists and its tag differs from the group's uniform tag
  // (otherwise the pre-existing G rows would have appeared as buddies —
  // a side effect).
  const Tuple* k = (*sys)->database().GetTable("K")->FindByKey(
      {Value::Int(5)});
  ASSERT_NE(k, nullptr);
  bool group_tag = false;
  (*sys)->database().GetTable("G")->ForEach([&](const Tuple& row) {
    if (row[1].as_int() == 5 && row[0].as_int() < 999999) {
      group_tag = row[2].as_bool();
    }
  });
  EXPECT_NE((*k)[1].as_bool(), group_tag);
  auto fresh = (*sys)->Republish();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*sys)->dag().CanonicalEdges(), fresh->CanonicalEdges());
}

TEST(Synthetic, BuddyInsertUnsatWhenGroupMixed) {
  SyntheticSpec spec = SmallSpec();
  spec.k_coverage = 0.0;
  spec.g_uniform_prob = 0.0;  // every group mixed -> never satisfiable
  spec.g_per_group = 2;
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok());
  Status st = (*sys)->ApplyStatement(
      "insert B(999999) into //C[cid=\"5\"]/buddies");
  EXPECT_TRUE(st.IsRejected()) << st.ToString();
}

TEST(Synthetic, PayloadFanoutPathSelectsManyNodes) {
  auto db = MakeSyntheticDatabase(SmallSpec());
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok());
  auto q1 = (*sys)->Query(PayloadFanoutPath(1, 1));
  auto q3 = (*sys)->Query(PayloadFanoutPath(1, 3));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q1->selected.size(), 0u);
  EXPECT_GT(q3->selected.size(), q1->selected.size());
}

TEST(Synthetic, WorkloadStatementsAreParseable) {
  auto db = MakeSyntheticDatabase(SmallSpec());
  ASSERT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok());
  for (WorkloadClass cls :
       {WorkloadClass::kW1, WorkloadClass::kW2, WorkloadClass::kW3}) {
    auto del = MakeDeletionWorkload(cls, *db, 10, 1);
    auto ins = MakeInsertionWorkload(cls, *db, 10, 1);
    ASSERT_TRUE(del.ok());
    ASSERT_TRUE(ins.ok());
    EXPECT_EQ(del->size(), 10u);
    EXPECT_EQ(ins->size(), 10u);
    for (const std::string& stmt : *del) {
      EXPECT_TRUE(ParseUpdate(stmt, *atg).ok()) << stmt;
    }
    for (const std::string& stmt : *ins) {
      EXPECT_TRUE(ParseUpdate(stmt, *atg).ok()) << stmt;
    }
  }
}

}  // namespace
}  // namespace xvu
