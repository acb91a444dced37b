// Randomized oracle for the partitioned hash-join evaluator: against
// random schemas, data (small value domains, so duplicate join keys
// abound) and queries — equi links, constants, parameters, non-equi (!=)
// links, empty tables, self-joins — the hash-join pipeline must return
// WitnessedRow sequences BIT-IDENTICAL to the nested-loop reference
// evaluator (tests/oracles): same projected rows, same per-occurrence
// sources, same order.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/relational/spj.h"
#include "src/viewupdate/view_store.h"
#include "tests/oracles/spj_nested_loop.h"

namespace xvu {
namespace {

void ExpectIdentical(const std::vector<SpjQuery::WitnessedRow>& hash,
                     const std::vector<SpjQuery::WitnessedRow>& ref,
                     const std::string& what) {
  ASSERT_EQ(hash.size(), ref.size()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(hash[i].projected, ref[i].projected) << what << " row " << i;
    ASSERT_EQ(hash[i].sources.size(), ref[i].sources.size()) << what;
    for (size_t s = 0; s < ref[i].sources.size(); ++s) {
      EXPECT_EQ(hash[i].sources[s], ref[i].sources[s])
          << what << " row " << i << " source " << s;
    }
  }
}

/// The projected rows of `rows`, first occurrences only: what
/// SpjQuery::Eval returns for the same evaluation.
std::vector<Tuple> DistinctProjected(
    const std::vector<SpjQuery::WitnessedRow>& rows) {
  std::vector<Tuple> out;
  std::unordered_set<Tuple, TupleHash> seen;
  for (const SpjQuery::WitnessedRow& wr : rows) {
    if (seen.insert(wr.projected).second) out.push_back(wr.projected);
  }
  return out;
}

/// Three base tables, arity 3 each: k (int key), v (int, small domain),
/// w (string, small domain). Row counts and domains vary per seed.
Database RandomDb(Rng* rng, size_t max_rows) {
  Database db;
  for (int ti = 0; ti < 3; ++ti) {
    std::string name = "T" + std::to_string(ti);
    EXPECT_TRUE(db.CreateTable(Schema(name,
                                      {{"k", ValueType::kInt},
                                       {"v", ValueType::kInt},
                                       {"w", ValueType::kString}},
                                      {"k"}))
                    .ok());
    Table* t = db.GetTable(name);
    size_t rows = rng->Below(max_rows + 1);  // may be empty
    int64_t vdom = rng->Range(1, 5);
    for (size_t r = 0; r < rows; ++r) {
      Tuple row = {Value::Int(static_cast<int64_t>(r)),
                   Value::Int(rng->Range(0, vdom)),
                   Value::Str("s" + std::to_string(rng->Range(0, 3)))};
      EXPECT_TRUE(t->Insert(std::move(row)).ok());
    }
  }
  return db;
}

struct RandomQuery {
  SpjQuery q;
  size_t num_params = 0;
};

RandomQuery MakeRandomQuery(const Database& db, Rng* rng) {
  SpjQueryBuilder b(&db);
  size_t occs = 1 + rng->Below(3);
  std::vector<std::string> aliases;
  for (size_t i = 0; i < occs; ++i) {
    std::string alias = "a" + std::to_string(i);
    // Random table; repeats make self-joins.
    b.From("T" + std::to_string(rng->Below(3)), alias);
    aliases.push_back(alias);
  }
  const char* cols[] = {"k", "v", "w"};
  auto col = [&](size_t occ, size_t c) { return aliases[occ] + "." + cols[c]; };
  // Link consecutive occurrences (mostly): equi on v/w breeds duplicate
  // keys; occasionally leave a pair unlinked (cross product) or add a !=.
  for (size_t i = 1; i < occs; ++i) {
    if (rng->Chance(0.8)) {
      size_t c = 1 + rng->Below(2);
      b.WhereEq(col(i - 1, c), col(i, c));
    }
    if (rng->Chance(0.25)) {
      size_t c = 1 + rng->Below(2);
      b.WhereNe(col(i - 1, c), col(i, c));
    }
  }
  if (rng->Chance(0.4)) {
    b.WhereConst(col(rng->Below(occs), 1), Value::Int(rng->Range(0, 4)));
  }
  size_t num_params = 0;
  if (rng->Chance(0.4)) {
    b.WhereParam(col(rng->Below(occs), 1), 0);
    num_params = 1;
  }
  size_t outs = 1 + rng->Below(3);
  for (size_t o = 0; o < outs; ++o) {
    b.Select(col(rng->Below(occs), rng->Below(3)), "o" + std::to_string(o));
  }
  auto q = b.Build();
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return RandomQuery{*q, num_params};
}

TEST(SpjJoinOracle, HashJoinMatchesNestedLoopBitIdentically) {
  Rng rng(20260809);
  for (int iter = 0; iter < 80; ++iter) {
    Database db = RandomDb(&rng, 30);
    RandomQuery rq = MakeRandomQuery(db, &rng);
    Tuple params;
    if (rq.num_params > 0) params.push_back(Value::Int(rng.Range(0, 4)));
    std::string what = "iter " + std::to_string(iter) + ": " +
                       rq.q.ToString();
    auto h = rq.q.EvalWithWitness(db, params);
    auto n = EvalNestedLoop(rq.q, db, params);
    ASSERT_TRUE(h.ok()) << h.status().ToString() << "\n" << what;
    ASSERT_TRUE(n.ok()) << n.status().ToString() << "\n" << what;
    ExpectIdentical(*h, *n, what);
    // Eval (deduplicated projection) must agree too.
    auto he = rq.q.Eval(db, params);
    ASSERT_TRUE(he.ok()) << what;
    EXPECT_EQ(*he, DistinctProjected(*n)) << what;
  }
}

TEST(SpjJoinOracle, PinnedEvaluationMatches) {
  Rng rng(777);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomDb(&rng, 25);
    RandomQuery rq = MakeRandomQuery(db, &rng);
    Tuple params;
    if (rq.num_params > 0) params.push_back(Value::Int(rng.Range(0, 4)));
    size_t pos = rng.Below(rq.q.tables().size());
    const Table* bt = db.GetTable(rq.q.tables()[pos].table);
    ASSERT_NE(bt, nullptr);
    if (bt->empty()) continue;
    // Pin a random row of that occurrence's table (it need not satisfy
    // the query's conditions — both evaluators must agree regardless).
    std::vector<Tuple> rows = bt->Rows();
    const Tuple& pinned = rows[rng.Below(rows.size())];
    auto h = rq.q.EvalWithWitnessPinned(db, params, pos, pinned);
    auto n = EvalNestedLoop(rq.q, db, params, pos, pinned);
    ASSERT_TRUE(h.ok() && n.ok());
    ExpectIdentical(*h, *n, "pinned iter " + std::to_string(iter));
  }
}

TEST(SpjJoinOracle, GroupedEvaluationMatches) {
  // Grouped evaluation drops the parameter predicate and groups by the
  // bound column; each group must equal the oracle's evaluation with the
  // parameter bound to the group's key, order included, and the keys
  // with no rows must be absent. The random queries bind $0 to a column
  // drawn from [0, 5].
  Rng rng(4242);
  for (int iter = 0; iter < 40; ++iter) {
    Database db = RandomDb(&rng, 25);
    RandomQuery rq = MakeRandomQuery(db, &rng);
    if (rq.num_params == 0) continue;
    auto h = rq.q.EvalGroupedByParams(db);
    ASSERT_TRUE(h.ok());
    size_t groups = 0;
    for (int64_t p = 0; p <= 5; ++p) {
      Tuple key = {Value::Int(p)};
      auto n = EvalNestedLoop(rq.q, db, key);
      ASSERT_TRUE(n.ok());
      auto it = h->find(key);
      if (n->empty()) {
        EXPECT_EQ(it, h->end()) << "iter " << iter << " key " << p;
        continue;
      }
      ++groups;
      ASSERT_NE(it, h->end()) << "iter " << iter << " key " << p;
      ExpectIdentical(it->second, *n,
                      "grouped iter " + std::to_string(iter) + " key " +
                          std::to_string(p));
    }
    EXPECT_EQ(h->size(), groups) << "iter " << iter;
  }
}

Database TwoTables(size_t r_rows, size_t s_rows) {
  Database db;
  EXPECT_TRUE(db.CreateTable(Schema("R",
                                    {{"a", ValueType::kInt},
                                     {"b", ValueType::kInt}},
                                    {"a"}))
                  .ok());
  EXPECT_TRUE(db.CreateTable(Schema("S",
                                    {{"c", ValueType::kInt},
                                     {"d", ValueType::kInt}},
                                    {"c"}))
                  .ok());
  Table* r = db.GetTable("R");
  for (size_t i = 0; i < r_rows; ++i) {
    EXPECT_TRUE(r->Insert({Value::Int(static_cast<int64_t>(i)),
                           Value::Int(static_cast<int64_t>(i % 7))})
                    .ok());
  }
  Table* s = db.GetTable("S");
  for (size_t i = 0; i < s_rows; ++i) {
    EXPECT_TRUE(s->Insert({Value::Int(static_cast<int64_t>(i)),
                           Value::Int(static_cast<int64_t>(i % 7))})
                    .ok());
  }
  return db;
}

TEST(SpjJoinBackend, NonEquiOnlyLinkFallsBackToCrossFilter) {
  Database db = TwoTables(12, 9);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereNe("r.b", "s.d")
               .Select("r.a", "ra").Select("s.c", "sc").Build();
  ASSERT_TRUE(q.ok());
  SpjExecStats stats;
  SpjExecOptions opts;
  opts.stats = &stats;
  auto h = q->EvalWithWitness(db, {}, opts);
  ASSERT_TRUE(h.ok());
  EXPECT_GE(stats.fallback_steps, 1u);
  EXPECT_EQ(stats.hash_join_steps, 0u);
  auto n = EvalNestedLoop(*q, db, {});
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->empty());  // the != has matches
  ExpectIdentical(*h, *n, "non-equi fallback");
}

TEST(SpjJoinBackend, EquiJoinUsesHashOrIndexSteps) {
  Database db = TwoTables(200, 150);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereEq("r.b", "s.d")
               .Select("r.a", "ra").Select("s.c", "sc").Build();
  ASSERT_TRUE(q.ok());
  SpjExecStats stats;
  SpjExecOptions opts;
  opts.stats = &stats;
  auto h = q->EvalWithWitness(db, {}, opts);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(stats.hash_join_steps, 1u);
  EXPECT_EQ(stats.fallback_steps, 0u);
  auto n = EvalNestedLoop(*q, db, {});
  ASSERT_TRUE(n.ok());
  ExpectIdentical(*h, *n, "equi build/probe");
}

TEST(SpjJoinBackend, SmallOuterUsesIndexProbeJoin) {
  Database db = TwoTables(3, 4000);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereEq("r.b", "s.d")
               .Select("r.a", "ra").Select("s.c", "sc").Build();
  ASSERT_TRUE(q.ok());
  SpjExecStats stats;
  SpjExecOptions opts;
  opts.stats = &stats;
  auto h = q->EvalWithWitness(db, {}, opts);
  ASSERT_TRUE(h.ok());
  // 3 bound rows against 4000 candidates: per-binding index probes win.
  EXPECT_EQ(stats.index_probe_steps, 1u);
  EXPECT_GT(stats.index_probes, 0u);
  auto n = EvalNestedLoop(*q, db, {});
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n->empty());
  ExpectIdentical(*h, *n, "index-probe join");
}

TEST(SpjJoinBackend, RadixPartitioningKicksInOnLargeSides) {
  Database db = TwoTables(600, 500);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereEq("r.b", "s.d")
               .Select("r.a", "ra").Build();
  ASSERT_TRUE(q.ok());
  SpjExecStats stats;
  SpjExecOptions opts;
  opts.partition_min_rows = 64;  // shrink so the test stays fast
  opts.stats = &stats;
  auto h = q->EvalWithWitness(db, {}, opts);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(stats.partitions, 1u);
  auto n = EvalNestedLoop(*q, db, {});
  ASSERT_TRUE(n.ok());
  ExpectIdentical(*h, *n, "partitioned join");
}

TEST(SpjJoinBackend, EmptySideShortCircuits) {
  Database db = TwoTables(10, 0);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereEq("r.b", "s.d")
               .Select("r.a", "ra").Build();
  ASSERT_TRUE(q.ok());
  auto h = q->EvalWithWitness(db, {});
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->empty());
}

TEST(SpjJoinBackend, ErrorMessagesMatchNestedLoopPath) {
  Database db = TwoTables(2, 2);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").WhereParam("r.b", 0).Select("r.a", "ra").Build();
  ASSERT_TRUE(q.ok());
  auto h = q->EvalWithWitness(db, {});
  auto n = EvalNestedLoop(*q, db, {});
  ASSERT_FALSE(h.ok());
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(h.status().message(), n.status().message());
  EXPECT_EQ(h.status().code(), n.status().code());
}

TEST(SpjJoinBackend, EdgeViewsRejectNonEquiRules) {
  Database db = TwoTables(2, 2);
  SpjQueryBuilder b(&db);
  auto q = b.From("R", "r").From("S", "s").WhereNe("r.b", "s.d")
               .Select("r.a", "ra").Build();
  ASSERT_TRUE(q.ok());
  ViewStore store;
  EdgeViewInfo info;
  info.name = "edge_x_y";
  info.parent_type = "x";
  info.child_type = "y";
  info.rule = *q;
  info.attr_arity = 1;
  Status st = store.RegisterEdgeView(std::move(info));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xvu
