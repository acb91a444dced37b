#include "src/sat/portfolio.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sat/cdcl.h"
#include "src/sat/walksat.h"

namespace xvu {
namespace {

Cnf Random3Cnf(Rng* rng, int nv, int nc) {
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      int32_t v =
          1 + static_cast<int32_t>(rng->Below(static_cast<uint64_t>(nv)));
      clause.push_back(rng->Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

Cnf UnsatXorChain() {
  Cnf cnf;
  int32_t a = cnf.NewVar(), b = cnf.NewVar(), c = cnf.NewVar();
  auto add_xor = [&](int32_t x, int32_t y) {
    cnf.AddBinary(x, y);
    cnf.AddBinary(-x, -y);
  };
  add_xor(a, b);
  add_xor(b, c);
  add_xor(a, c);
  return cnf;
}

/// Pigeonhole 5 pigeons / 4 holes: unsatisfiable and hard enough that a
/// 1-conflict CDCL budget cannot refute it.
Cnf Pigeonhole() {
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
  return cnf;
}

/// The sequential semantics the winner rule promises: WalkSAT lane 0, then
/// CDCL — computed without any portfolio machinery.
SatResult SequentialOracle(const Cnf& cnf, const PortfolioOptions& opts) {
  if (opts.walksat_lanes > 0) {
    SatResult ws = SolveWalkSat(cnf, opts.walksat);
    if (ws.kind != SatResult::Kind::kUnknown) return ws;
  }
  return SolveCdcl(cnf, opts.cdcl);
}

TEST(Portfolio, SatModelValidThreaded) {
  Rng rng(11);
  Cnf cnf = Random3Cnf(&rng, 20, 60);  // low ratio: satisfiable
  PortfolioOptions opts;
  opts.inline_below_clauses = 0;  // force lane threads
  PortfolioStats stats;
  SatResult r = SolvePortfolio(cnf, opts, &stats);
  ASSERT_EQ(r.kind, SatResult::Kind::kSat);
  EXPECT_TRUE(cnf.IsSatisfiedBy(r.model));
  EXPECT_TRUE(stats.threaded);
  EXPECT_EQ(stats.lanes, opts.walksat_lanes + 1);
  EXPECT_GE(stats.winner_lane, 0);
}

TEST(Portfolio, UnsatThreaded) {
  Cnf cnf = UnsatXorChain();
  PortfolioOptions opts;
  opts.inline_below_clauses = 0;
  PortfolioStats stats;
  EXPECT_EQ(SolvePortfolio(cnf, opts, &stats).kind, SatResult::Kind::kUnsat);
}

TEST(Portfolio, InlineFastPathMatchesThreaded) {
  Rng rng(17);
  for (int inst = 0; inst < 20; ++inst) {
    Cnf cnf = Random3Cnf(&rng, 15, 45 + inst);
    PortfolioOptions inline_opts;
    inline_opts.inline_below_clauses = 100000;  // always inline
    PortfolioOptions threaded_opts;
    threaded_opts.inline_below_clauses = 0;  // always threaded
    SatResult a = SolvePortfolio(cnf, inline_opts);
    SatResult b = SolvePortfolio(cnf, threaded_opts);
    ASSERT_EQ(a.kind, b.kind) << "instance " << inst;
    EXPECT_EQ(a.model, b.model) << "instance " << inst;
  }
}

TEST(Portfolio, DeterministicBitIdentityAcrossLaneCounts) {
  // The acceptance-bar fuzz: for ANY lane count the (kind, model) must be
  // bit-identical — and equal to the sequential lane0-then-CDCL oracle.
  Rng rng(4242);
  for (int inst = 0; inst < 25; ++inst) {
    int nv = 10 + static_cast<int>(rng.Below(15));
    int nc = static_cast<int>(rng.Below(static_cast<uint64_t>(5 * nv))) + nv;
    Cnf cnf = Random3Cnf(&rng, nv, nc);
    PortfolioOptions base;
    base.inline_below_clauses = 0;
    SatResult oracle = SequentialOracle(cnf, base);
    for (size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      PortfolioOptions opts = base;
      opts.walksat_lanes = lanes;
      SatResult r = SolvePortfolio(cnf, opts);
      ASSERT_EQ(r.kind, oracle.kind)
          << "instance " << inst << " lanes " << lanes;
      EXPECT_EQ(r.model, oracle.model)
          << "instance " << inst << " lanes " << lanes;
    }
  }
}

TEST(Portfolio, CancellationStopsLosingLanes) {
  // Unsatisfiable formula, WalkSAT lanes with an hours-long flip budget:
  // the test only terminates promptly because the CDCL lane's kUnsat
  // fires the shared cancel token and every WalkSAT inner loop polls it.
  Cnf cnf = UnsatXorChain();
  PortfolioOptions opts;
  opts.inline_below_clauses = 0;
  opts.walksat_lanes = 4;
  opts.walksat.max_tries = 1000000;
  opts.walksat.max_flips = 100000000;
  PortfolioStats stats;
  SatResult r = SolvePortfolio(cnf, opts, &stats);
  EXPECT_EQ(r.kind, SatResult::Kind::kUnsat);
  EXPECT_GE(stats.lanes_cancelled, 1u);
  EXPECT_EQ(stats.winner_lane, static_cast<int>(opts.walksat_lanes));
}

TEST(Portfolio, CdclOnlyConfiguration) {
  Rng rng(55);
  Cnf cnf = Random3Cnf(&rng, 20, 80);
  PortfolioOptions opts;
  opts.walksat_lanes = 0;
  SatResult r = SolvePortfolio(cnf, opts);
  SatResult oracle = SolveCdcl(cnf);
  ASSERT_EQ(r.kind, oracle.kind);
  EXPECT_EQ(r.model, oracle.model);
}

TEST(Portfolio, CappedCdclCanReturnUnknown) {
  // With a conflict-capped CDCL lane and budget-capped WalkSAT lanes a
  // hard unsat instance exhausts every lane: kUnknown is the honest
  // answer.
  Cnf cnf = Pigeonhole();
  PortfolioOptions opts;
  opts.inline_below_clauses = 0;
  opts.cdcl.max_conflicts = 1;
  opts.walksat.max_tries = 1;
  opts.walksat.max_flips = 50;
  EXPECT_EQ(SolvePortfolio(cnf, opts).kind, SatResult::Kind::kUnknown);
}

}  // namespace
}  // namespace xvu
