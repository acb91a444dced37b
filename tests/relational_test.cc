#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/relational/database.h"
#include "src/relational/spj.h"

namespace xvu {
namespace {

Database TwoTableDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable(Schema("R",
                                    {{"a", ValueType::kInt},
                                     {"b", ValueType::kBool}},
                                    {"a"}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(Schema("S",
                                    {{"c", ValueType::kInt},
                                     {"d", ValueType::kBool}},
                                    {"c"}))
                  .ok());
  return db;
}

TEST(Schema, ColumnLookupAndKey) {
  Schema s("t", {{"x", ValueType::kInt}, {"y", ValueType::kString}}, {"y"});
  EXPECT_EQ(s.ColumnIndex("x"), 0u);
  EXPECT_EQ(s.ColumnIndex("y"), 1u);
  EXPECT_EQ(s.ColumnIndex("z"), Schema::npos);
  Tuple t = {Value::Int(1), Value::Str("k")};
  EXPECT_EQ(s.KeyOf(t), Tuple{Value::Str("k")});
}

TEST(Schema, ValidateTupleTypes) {
  Schema s("t", {{"x", ValueType::kInt}, {"y", ValueType::kString}}, {"x"});
  EXPECT_TRUE(s.ValidateTuple({Value::Int(1), Value::Str("a")}).ok());
  EXPECT_FALSE(s.ValidateTuple({Value::Str("a"), Value::Str("a")}).ok());
  EXPECT_FALSE(s.ValidateTuple({Value::Int(1)}).ok());  // arity
  // Nulls pass anywhere; kNull columns accept anything.
  EXPECT_TRUE(s.ValidateTuple({Value::Null(), Value::Null()}).ok());
  Schema dyn("d", {{"x", ValueType::kNull}}, {"x"});
  EXPECT_TRUE(dyn.ValidateTuple({Value::Str("whatever")}).ok());
}

TEST(Table, InsertDuplicateKeyRejected) {
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Int(10)}).ok());
  Status dup = t.Insert({Value::Int(1), Value::Int(99)});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Table, InsertIfAbsentSemantics) {
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  Tuple row = {Value::Int(1), Value::Int(10)};
  EXPECT_TRUE(t.InsertIfAbsent(row).ok());
  EXPECT_TRUE(t.InsertIfAbsent(row).ok());  // identical: no-op
  EXPECT_EQ(t.size(), 1u);
  // Same key, different payload: error.
  EXPECT_FALSE(t.InsertIfAbsent({Value::Int(1), Value::Int(11)}).ok());
}

TEST(Table, DeleteAndLookup) {
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Int(i * i)}).ok());
  }
  EXPECT_TRUE(t.DeleteByKey({Value::Int(3)}).ok());
  EXPECT_EQ(t.FindByKey({Value::Int(3)}), nullptr);
  EXPECT_FALSE(t.DeleteByKey({Value::Int(3)}).ok());
  EXPECT_EQ(t.size(), 9u);
  ASSERT_NE(t.FindByKey({Value::Int(7)}), nullptr);
  EXPECT_EQ((*t.FindByKey({Value::Int(7)}))[1], Value::Int(49));
}

TEST(Table, CompactionKeepsIndexConsistent) {
  Table t(Schema("t", {{"k", ValueType::kInt}}, {"k"}));
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(t.Insert({Value::Int(i)}).ok());
  // Delete most rows to trigger compaction repeatedly.
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(t.DeleteByKey({Value::Int(i)}).ok());
  }
  EXPECT_EQ(t.size(), 10u);
  for (int i = 90; i < 100; ++i) {
    EXPECT_NE(t.FindByKey({Value::Int(i)}), nullptr) << i;
  }
  size_t seen = 0;
  t.ForEach([&](const Tuple&) { ++seen; });
  EXPECT_EQ(seen, 10u);
}

TEST(Database, ApplyUpdateInsertAndDelete) {
  Database db = TwoTableDb();
  RelationalUpdate up;
  up.ops.push_back(TableOp{TableOp::Kind::kInsert, "R",
                           {Value::Int(1), Value::Bool(true)}});
  up.ops.push_back(TableOp{TableOp::Kind::kInsert, "S",
                           {Value::Int(2), Value::Bool(false)}});
  ASSERT_TRUE(ApplyUpdate(up, &db).ok());
  EXPECT_EQ(db.TotalRows(), 2u);
  RelationalUpdate del;
  del.ops.push_back(TableOp{TableOp::Kind::kDelete, "R",
                            {Value::Int(1), Value::Bool(true)}});
  ASSERT_TRUE(ApplyUpdate(del, &db).ok());
  EXPECT_EQ(db.GetTable("R")->size(), 0u);
}

class SpjEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = TwoTableDb();
    Table* r = db_.GetTable("R");
    Table* s = db_.GetTable("S");
    ASSERT_TRUE(r->Insert({Value::Int(1), Value::Bool(true)}).ok());
    ASSERT_TRUE(r->Insert({Value::Int(2), Value::Bool(false)}).ok());
    ASSERT_TRUE(r->Insert({Value::Int(3), Value::Bool(true)}).ok());
    ASSERT_TRUE(s->Insert({Value::Int(10), Value::Bool(true)}).ok());
    ASSERT_TRUE(s->Insert({Value::Int(20), Value::Bool(false)}).ok());
  }
  Database db_;
};

TEST_F(SpjEvalTest, JoinOnBoolColumn) {
  // The Example 8 shape: R x S on b = d.
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r")
               .From("S", "s")
               .WhereEq("r.b", "s.d")
               .Select("r.a", "a")
               .Select("s.c", "c")
               .Build();
  ASSERT_TRUE(q.ok());
  auto rows = q->Eval(db_, {});
  ASSERT_TRUE(rows.ok());
  // true-rows {1,3} x {10}, false-rows {2} x {20}.
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(SpjEvalTest, ConstAndParamConditions) {
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r")
               .WhereConst("r.b", Value::Bool(true))
               .WhereParam("r.a", 0)
               .Select("r.a", "a")
               .Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_params(), 1u);
  auto rows = q->Eval(db_, {Value::Int(3)});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Int(3));
  // Param selecting a false row yields nothing.
  auto none = q->Eval(db_, {Value::Int(2)});
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(SpjEvalTest, MissingParamsError) {
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r").WhereParam("r.a", 0).Select("r.a", "a").Build();
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->Eval(db_, {}).ok());
}

TEST_F(SpjEvalTest, EvalDeduplicates) {
  // Projecting only the bool column collapses duplicates (set semantics).
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r").Select("r.b", "b").Build();
  ASSERT_TRUE(q.ok());
  auto rows = q->Eval(db_, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // {true, false}
  auto witnessed = q->EvalWithWitness(db_, {});
  ASSERT_TRUE(witnessed.ok());
  EXPECT_EQ(witnessed->size(), 3u);  // witnesses are not collapsed
}

TEST_F(SpjEvalTest, WitnessesIdentifySources) {
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r")
               .From("S", "s")
               .WhereEq("r.b", "s.d")
               .Select("r.a", "a")
               .Build();
  ASSERT_TRUE(q.ok());
  auto rows = q->EvalWithWitness(db_, {});
  ASSERT_TRUE(rows.ok());
  for (const auto& wr : *rows) {
    ASSERT_EQ(wr.sources.size(), 2u);
    EXPECT_EQ(wr.sources[0][1], wr.sources[1][1]);  // join condition holds
    EXPECT_EQ(wr.projected[0], wr.sources[0][0]);
  }
}

TEST_F(SpjEvalTest, KeyPreservation) {
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r")
               .From("S", "s")
               .WhereEq("r.b", "s.d")
               .Select("r.b", "b")
               .Build();
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->IsKeyPreserving(db_));
  SpjQuery kp = q->WithKeyPreservation(db_);
  EXPECT_TRUE(kp.IsKeyPreserving(db_));
  // Extended outputs: b + r.a + s.c.
  EXPECT_EQ(kp.outputs().size(), 3u);
  auto pos = kp.KeyOutputPositions(db_);
  ASSERT_TRUE(pos.ok());
  ASSERT_EQ(pos->size(), 2u);
  EXPECT_EQ((*pos)[0], std::vector<size_t>{1});
  EXPECT_EQ((*pos)[1], std::vector<size_t>{2});
}

TEST_F(SpjEvalTest, KeyPreservationIdempotent) {
  SpjQueryBuilder b(&db_);
  auto q = b.From("R", "r").Select("r.a", "a").Build();
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsKeyPreserving(db_));
  SpjQuery kp = q->WithKeyPreservation(db_);
  EXPECT_EQ(kp.outputs().size(), q->outputs().size());
}

TEST(SpjBuilder, Errors) {
  Database db = TwoTableDb();
  {
    SpjQueryBuilder b(&db);
    EXPECT_FALSE(b.From("nope", "n").Select("n.a", "a").Build().ok());
  }
  {
    SpjQueryBuilder b(&db);
    EXPECT_FALSE(
        b.From("R", "r").Select("r.missing", "m").Build().ok());
  }
  {
    SpjQueryBuilder b(&db);
    EXPECT_FALSE(b.From("R", "r").From("S", "r").Build().ok());  // dup alias
  }
  {
    SpjQueryBuilder b(&db);
    EXPECT_FALSE(b.From("R", "r").Build().ok());  // no projection
  }
}

TEST(SpjEval, SelfJoinRenaming) {
  Database db = TwoTableDb();
  Table* r = db.GetTable("R");
  ASSERT_TRUE(r->Insert({Value::Int(1), Value::Bool(true)}).ok());
  ASSERT_TRUE(r->Insert({Value::Int(2), Value::Bool(true)}).ok());
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r1")
               .From("R", "r2")
               .WhereEq("r1.b", "r2.b")
               .Select("r1.a", "a1")
               .Select("r2.a", "a2")
               .Build();
  ASSERT_TRUE(q.ok());
  auto rows = q->Eval(db, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 2x2 pairs on b=true
}

TEST(ColumnIndex, ProbeMatchesScanAndBucketsStayAscending) {
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  t.EnsureColumnIndex(1);  // built while empty, maintained from then on
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Int(i % 3)}).ok());
  }
  const std::vector<size_t>* slots = t.EqSlots(1, Value::Int(0));
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(slots->size(), 7u);
  EXPECT_TRUE(std::is_sorted(slots->begin(), slots->end()));
  EXPECT_EQ(t.CountEq(1, Value::Int(5)), 0u);
  EXPECT_EQ(t.EqSlots(1, Value::Int(5)), nullptr);
  // Out-of-range column / unbuilt column.
  EXPECT_EQ(t.EqSlots(7, Value::Int(0)), nullptr);
  EXPECT_FALSE(t.HasColumnIndex(0));
  // EnsureColumnIndex is lazy: a second call does not rebuild.
  size_t builds = t.column_index_builds();
  t.EnsureColumnIndex(1);
  EXPECT_EQ(t.column_index_builds(), builds);
}

TEST(ColumnIndex, MaintainedAcrossRandomInsertDeleteCompaction) {
  Rng rng(99);
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  t.EnsureColumnIndex(1);
  std::vector<int64_t> live_keys;
  int64_t next_key = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live_keys.empty() || rng.Chance(0.6)) {
      int64_t k = next_key++;
      ASSERT_TRUE(t.Insert({Value::Int(k), Value::Int(rng.Range(0, 6))}).ok());
      live_keys.push_back(k);
    } else {
      size_t at = rng.Below(live_keys.size());
      // Deletes trigger compaction once half the slots are tombstones,
      // which drops the built indexes; probes after that must rebuild
      // lazily and still agree with the scan.
      ASSERT_TRUE(t.DeleteByKey({Value::Int(live_keys[at])}).ok());
      live_keys.erase(live_keys.begin() + static_cast<std::ptrdiff_t>(at));
    }
    if (step % 97 == 0) {
      t.EnsureColumnIndex(1);
      for (int64_t v = 0; v < 7; ++v) {
        size_t brute = 0;
        t.ForEach([&](const Tuple& row) {
          if (row[1] == Value::Int(v)) ++brute;
        });
        EXPECT_EQ(t.CountEq(1, Value::Int(v)), brute)
            << "step " << step << " v " << v;
        const std::vector<size_t>* slots = t.EqSlots(1, Value::Int(v));
        if (slots != nullptr) {
          EXPECT_TRUE(std::is_sorted(slots->begin(), slots->end()));
          for (size_t s : *slots) {
            EXPECT_EQ(t.RowAt(s)[1], Value::Int(v));
          }
        }
      }
    }
  }
}

TEST(ColumnIndex, CopiedTableRebuildsItsOwnIndexes) {
  Table t(Schema("t", {{"k", ValueType::kInt}, {"v", ValueType::kInt}},
                 {"k"}));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Int(i % 2)}).ok());
  }
  t.EnsureColumnIndex(1);
  ASSERT_TRUE(t.HasColumnIndex(1));
  Table copy = t;  // copies data, not the index cache
  EXPECT_FALSE(copy.HasColumnIndex(1));
  copy.EnsureColumnIndex(1);
  EXPECT_EQ(copy.CountEq(1, Value::Int(0)), 5u);
  // Mutating the copy leaves the original's index intact.
  ASSERT_TRUE(copy.DeleteByKey({Value::Int(0)}).ok());
  EXPECT_EQ(t.CountEq(1, Value::Int(0)), 5u);
}

TEST(SpjEval, CrossProductWhenNoLink) {
  Database db = TwoTableDb();
  Table* r = db.GetTable("R");
  Table* s = db.GetTable("S");
  ASSERT_TRUE(r->Insert({Value::Int(1), Value::Bool(true)}).ok());
  ASSERT_TRUE(s->Insert({Value::Int(9), Value::Bool(true)}).ok());
  ASSERT_TRUE(s->Insert({Value::Int(8), Value::Bool(true)}).ok());
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r")
               .From("S", "s")
               .Select("r.a", "a")
               .Select("s.c", "c")
               .Build();
  ASSERT_TRUE(q.ok());
  auto rows = q->Eval(db, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

}  // namespace
}  // namespace xvu
