#include <gtest/gtest.h>

#include <atomic>

#include "src/common/rng.h"
#include "src/sat/cdcl.h"
#include "src/sat/encoder.h"
#include "src/sat/walksat.h"
#include "tests/oracles/dpll.h"

namespace xvu {
namespace {

/// Random k-CNF over `nv` variables with clause lengths in [1, 3] —
/// mixed lengths exercise the unit-clause and binary-watch paths.
Cnf RandomCnf(Rng* rng, int nv, int nc, bool mixed_lengths) {
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  for (int c = 0; c < nc; ++c) {
    int len = mixed_lengths ? 1 + static_cast<int>(rng->Below(3)) : 3;
    std::vector<Lit> clause;
    for (int k = 0; k < len; ++k) {
      int32_t v =
          1 + static_cast<int32_t>(rng->Below(static_cast<uint64_t>(nv)));
      clause.push_back(rng->Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

TEST(Cnf, BasicBookkeeping) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar();
  cnf.AddBinary(a, b);
  cnf.AddUnit(-a);
  EXPECT_EQ(cnf.num_vars(), 2);
  EXPECT_EQ(cnf.num_clauses(), 2u);
  std::vector<bool> model = {false, false, true};  // a=F, b=T
  EXPECT_TRUE(cnf.IsSatisfiedBy(model));
  model[2] = false;
  EXPECT_FALSE(cnf.IsSatisfiedBy(model));
}

TEST(Cnf, DimacsRendering) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar();
  cnf.AddBinary(a, -b);
  std::string d = cnf.ToDimacs();
  EXPECT_NE(d.find("p cnf 2 1"), std::string::npos);
  EXPECT_NE(d.find("1 -2 0"), std::string::npos);
}

// The recursive DPLL oracle (tests/oracles) on known answers: the CDCL
// fuzz below trusts its verdicts.
TEST(Dpll, SatisfiableAndModelValid) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  cnf.AddTernary(a, b, c);
  cnf.AddBinary(-a, -b);
  cnf.AddBinary(-b, -c);
  SatResult r = SolveDpllRecursive(cnf);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
}

TEST(Dpll, ProvesUnsat) {
  Cnf cnf;
  int32_t a = cnf.NewVar();
  cnf.AddUnit(a);
  cnf.AddUnit(-a);
  EXPECT_EQ(SolveDpllRecursive(cnf).kind, SatResult::Kind::kUnsat);
}

TEST(Dpll, UnsatXorChain) {
  // (a xor b) and (b xor c) and (a xor c) is unsatisfiable.
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  auto add_xor = [&](int32_t x, int32_t y) {
    cnf.AddBinary(x, y);
    cnf.AddBinary(-x, -y);
  };
  add_xor(a, b);
  add_xor(b, c);
  add_xor(a, c);
  EXPECT_EQ(SolveDpllRecursive(cnf).kind, SatResult::Kind::kUnsat);
}

TEST(Dpll, EmptyFormulaIsSat) {
  Cnf cnf;
  EXPECT_EQ(SolveDpllRecursive(cnf).kind, SatResult::Kind::kSat);
}

TEST(Cdcl, SatisfiableAndModelValid) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  cnf.AddTernary(a, b, c);
  cnf.AddBinary(-a, -b);
  cnf.AddBinary(-b, -c);
  SatStats stats;
  SatResult r = SolveCdcl(cnf, {}, &stats);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
}

TEST(Cdcl, ProvesUnsatXorChain) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  auto add_xor = [&](int32_t x, int32_t y) {
    cnf.AddBinary(x, y);
    cnf.AddBinary(-x, -y);
  };
  add_xor(a, b);
  add_xor(b, c);
  add_xor(a, c);
  EXPECT_EQ(SolveCdcl(cnf).kind, SatResult::Kind::kUnsat);
}

TEST(Cdcl, EdgeCases) {
  Cnf empty;
  EXPECT_EQ(SolveCdcl(empty).kind, SatResult::Kind::kSat);

  Cnf empty_clause;
  empty_clause.AddClause({});
  EXPECT_EQ(SolveCdcl(empty_clause).kind, SatResult::Kind::kUnsat);

  Cnf units;
  int32_t a = units.NewVar();
  units.AddUnit(a);
  units.AddUnit(-a);
  EXPECT_EQ(SolveCdcl(units).kind, SatResult::Kind::kUnsat);

  // Tautological and duplicated literals must be normalized away.
  Cnf taut;
  int32_t x = taut.NewVar(), y = taut.NewVar();
  taut.AddClause({x, -x, y});
  taut.AddClause({y, y, y});
  SatResult r = SolveCdcl(taut);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(taut.IsSatisfiedBy(r.model));
}

TEST(Cdcl, CancellationReturnsUnknown) {
  // A pre-fired token makes the solver give up before its first decision.
  Rng rng(5);
  Cnf cnf = RandomCnf(&rng, 30, 120, false);
  std::atomic<bool> cancel{true};
  CdclOptions opts;
  opts.cancel = &cancel;
  EXPECT_EQ(SolveCdcl(cnf, opts).kind, SatResult::Kind::kUnknown);
}

TEST(Cdcl, ConflictBudgetReturnsUnknown) {
  // Pigeonhole 5 pigeons / 4 holes: unsatisfiable, and far beyond a
  // 1-conflict budget (a single learned clause plus root-level
  // propagation cannot refute it, unlike tiny xor chains).
  constexpr int kPigeons = 5, kHoles = 4;
  Cnf cnf;
  int32_t p[kPigeons][kHoles];
  for (int i = 0; i < kPigeons; ++i)
    for (int h = 0; h < kHoles; ++h) p[i][h] = cnf.NewVar();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> some_hole(p[i], p[i] + kHoles);
    cnf.AddClause(std::move(some_hole));
  }
  for (int h = 0; h < kHoles; ++h)
    for (int i = 0; i < kPigeons; ++i)
      for (int j = i + 1; j < kPigeons; ++j) cnf.AddBinary(-p[i][h], -p[j][h]);
  CdclOptions opts;
  opts.max_conflicts = 1;
  EXPECT_EQ(SolveCdcl(cnf, opts).kind, SatResult::Kind::kUnknown);
  // Without the budget the same instance is proven unsat.
  EXPECT_EQ(SolveCdcl(cnf).kind, SatResult::Kind::kUnsat);
}

TEST(Cdcl, AgreesWithRecursiveDpllOnRandomCnf) {
  // The old recursive DPLL is the correctness oracle: verdicts must match
  // on every instance, and CDCL models must satisfy the formula.
  Rng rng(1234);
  for (int inst = 0; inst < 120; ++inst) {
    int nv = 8 + static_cast<int>(rng.Below(10));
    int nc = 2 * nv +
             static_cast<int>(rng.Below(static_cast<uint64_t>(3 * nv)));
    bool mixed = inst % 2 == 0;
    Cnf cnf = RandomCnf(&rng, nv, nc, mixed);
    SatResult oracle = SolveDpllRecursive(cnf);
    SatStats stats;
    SatResult fast = SolveCdcl(cnf, {}, &stats);
    ASSERT_EQ(fast.kind, oracle.kind) << "instance " << inst;
    if (fast.kind == SatResult::Kind::kSat) {
      EXPECT_TRUE(cnf.IsSatisfiedBy(fast.model)) << "instance " << inst;
    }
  }
}

TEST(Cdcl, DeterministicAcrossRuns) {
  Rng rng(99);
  Cnf cnf = RandomCnf(&rng, 25, 100, false);
  SatResult a = SolveCdcl(cnf);
  SatResult b = SolveCdcl(cnf);
  ASSERT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.model, b.model);
}

TEST(Cdcl, StatsCountersPopulated) {
  // A hard-enough random instance must register propagations and, when
  // conflicts occur, learned clauses.
  Rng rng(7);
  Cnf cnf = RandomCnf(&rng, 40, 170, false);
  SatStats stats;
  SatResult r = SolveCdcl(cnf, {}, &stats);
  ASSERT_NE(r.kind, SatResult::Kind::kUnknown);
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_GT(stats.decisions, 0u);
}

TEST(WalkSat, SolvesSatisfiableInstances) {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  cnf.AddTernary(a, b, c);
  cnf.AddBinary(-a, b);
  cnf.AddBinary(-b, c);
  SatResult r = SolveWalkSat(cnf);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
}

TEST(WalkSat, ReportsUnknownOnUnsat) {
  Cnf cnf;
  int32_t a = cnf.NewVar();
  cnf.AddUnit(a);
  cnf.AddUnit(-a);
  WalkSatOptions opts;
  opts.max_tries = 2;
  opts.max_flips = 200;
  SatResult r = SolveWalkSat(cnf, opts);
  EXPECT_EQ(r.kind, SatResult::Kind::kUnknown);
}

TEST(WalkSat, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.AddClause({});
  EXPECT_EQ(SolveWalkSat(cnf).kind, SatResult::Kind::kUnsat);
}

TEST(WalkSat, AgreesWithCdclOnRandom3Sat) {
  // Random 3-SAT at a modest clause/variable ratio: WalkSAT must find a
  // model whenever CDCL proves one exists.
  Rng rng(77);
  for (int inst = 0; inst < 30; ++inst) {
    Cnf cnf;
    const int nv = 12;
    for (int i = 0; i < nv; ++i) cnf.NewVar();
    int nc = 3 * nv;
    for (int c = 0; c < nc; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        int32_t v = 1 + static_cast<int32_t>(rng.Below(nv));
        clause.push_back(rng.Chance(0.5) ? v : -v);
      }
      cnf.AddClause(std::move(clause));
    }
    SatResult exact = SolveCdcl(cnf);
    if (exact.kind == SatResult::Kind::kSat) {
      SatResult ws = SolveWalkSat(cnf);
      ASSERT_EQ(ws.kind, SatResult::Kind::kSat) << "instance " << inst;
      EXPECT_TRUE(cnf.IsSatisfiedBy(ws.model));
    }
  }
}

TEST(WalkSat, CancellationReturnsUnknown) {
  // An unsatisfiable instance with an effectively unbounded flip budget:
  // only the pre-fired token can stop the walk promptly.
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  auto add_xor = [&](int32_t x, int32_t y) {
    cnf.AddBinary(x, y);
    cnf.AddBinary(-x, -y);
  };
  add_xor(a, b);
  add_xor(b, c);
  add_xor(a, c);
  WalkSatOptions opts;
  opts.max_tries = 1000000;
  opts.max_flips = 1000000;
  std::atomic<bool> cancel{true};
  EXPECT_EQ(SolveWalkSat(cnf, opts, nullptr, &cancel).kind,
            SatResult::Kind::kUnknown);
}

TEST(WalkSat, FlipCounterPopulated) {
  Rng rng(21);
  Cnf cnf = RandomCnf(&rng, 20, 80, false);
  SatStats stats;
  SolveWalkSat(cnf, {}, &stats);
  EXPECT_GT(stats.flips, 0u);
}

TEST(Encoder, BoolDomainSingleVariable) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  // x = true is a single literal; its negation is x = false.
  Lit lt = enc.EqConst(x, Value::Bool(true));
  Lit lf = enc.EqConst(x, Value::Bool(false));
  EXPECT_EQ(lt, -lf);
  enc.AddClause({lt});
  SatResult r = SolveCdcl(enc.cnf());
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  auto v = enc.Decode(x, r.model);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Bool(true));
}

TEST(Encoder, OutOfDomainConstantIsFalse) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  Lit l = enc.EqConst(x, Value::Int(3));
  enc.AddClause({l});  // forces the constant-false literal: unsat
  EXPECT_EQ(SolveCdcl(enc.cnf()).kind, SatResult::Kind::kUnsat);
}

TEST(Encoder, OneHotDomain) {
  FiniteDomainEncoder enc;
  std::vector<Value> dom = {Value::Int(1), Value::Int(2), Value::Int(3)};
  auto x = enc.AddVar(dom);
  enc.AddClause({-enc.EqConst(x, Value::Int(1))});
  enc.AddClause({-enc.EqConst(x, Value::Int(3))});
  SatResult r = SolveCdcl(enc.cnf());
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  auto v = enc.Decode(x, r.model);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value::Int(2));
}

TEST(Encoder, EqVarForcesEquality) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  auto y = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  enc.AddClause({enc.EqVar(x, y)});
  enc.AddClause({enc.EqConst(x, Value::Bool(true))});
  SatResult r = SolveCdcl(enc.cnf());
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  auto vy = enc.Decode(y, r.model);
  ASSERT_TRUE(vy.ok());
  EXPECT_EQ(*vy, Value::Bool(true));
}

TEST(Encoder, NegatedEqVarForcesInequality) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  auto y = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  enc.AddClause({-enc.EqVar(x, y)});
  enc.AddClause({enc.EqConst(x, Value::Bool(false))});
  SatResult r = SolveCdcl(enc.cnf());
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  auto vy = enc.Decode(y, r.model);
  ASSERT_TRUE(vy.ok());
  EXPECT_EQ(*vy, Value::Bool(true));
}

TEST(Encoder, DisjointDomainsNeverEqual) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Int(1)});
  auto y = enc.AddVar({Value::Int(2)});
  enc.AddClause({enc.EqVar(x, y)});
  EXPECT_EQ(SolveCdcl(enc.cnf()).kind, SatResult::Kind::kUnsat);
}

TEST(Encoder, EqVarCached) {
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  auto y = enc.AddVar({Value::Bool(false), Value::Bool(true)});
  Lit a = enc.EqVar(x, y);
  Lit b = enc.EqVar(y, x);
  EXPECT_EQ(a, b);
}

TEST(Encoder, MixedDomainEquality) {
  // x over {1,2,3}, y over {2,3,4}: equality restricted to {2,3}.
  FiniteDomainEncoder enc;
  auto x = enc.AddVar({Value::Int(1), Value::Int(2), Value::Int(3)});
  auto y = enc.AddVar({Value::Int(2), Value::Int(3), Value::Int(4)});
  enc.AddClause({enc.EqVar(x, y)});
  enc.AddClause({-enc.EqConst(x, Value::Int(2))});
  SatResult r = SolveCdcl(enc.cnf());
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  auto vx = enc.Decode(x, r.model);
  auto vy = enc.Decode(y, r.model);
  ASSERT_TRUE(vx.ok());
  ASSERT_TRUE(vy.ok());
  EXPECT_EQ(*vx, Value::Int(3));
  EXPECT_EQ(*vy, Value::Int(3));
}

}  // namespace
}  // namespace xvu
