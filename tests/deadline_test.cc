// Deadline plumbing and graceful-degradation tests: the Deadline type
// itself, the CRC32C primitive backing the XVUR v2 format, deadline
// expiry through the update pipeline and the solvers, and the two
// thread-spawn degradation paths (worker pool, SAT portfolio).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32c.h"
#include "src/common/deadline.h"
#include "src/common/failpoint.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/pipeline.h"
#include "src/core/system.h"
#include "src/sat/cdcl.h"
#include "src/sat/portfolio.h"
#include "src/sat/walksat.h"
#include "src/viewupdate/minimal_delete.h"
#include "src/workload/registrar.h"
#include "src/xpath/parser.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

Value S(const char* s) { return Value::Str(s); }

Path P(const std::string& xpath) {
  auto p = ParseXPath(xpath);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(*p);
}

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

using testing_util::StripCache;

// ---------------------------------------------------------------- Deadline

TEST(Deadline, DefaultIsInfiniteAndNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(Deadline::Infinite().infinite());
  EXPECT_TRUE(CheckDeadline(d, "anywhere").ok());
}

TEST(Deadline, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(0).expired());
  EXPECT_TRUE(Deadline::After(-1).expired());
  Status st = CheckDeadline(Deadline::After(-1), "unit test");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(st.message().find("unit test"), std::string::npos);
}

TEST(Deadline, GenerousBudgetIsNotExpired) {
  Deadline d = Deadline::After(3600);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
}

// ----------------------------------------------------------------- CRC32C

TEST(Crc32c, MatchesTheStandardTestVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // Castagnoli implementation): crc("123456789") == 0xE3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, ExtendComposesAndMaskRoundTrips) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t split = crc32c::Extend(crc32c::Value(data.data(), 17),
                                  data.data() + 17, data.size() - 17);
  EXPECT_EQ(whole, split);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(whole)), whole);
  EXPECT_NE(crc32c::Mask(whole), whole);
}

// ------------------------------------------------- pipeline deadline expiry

TEST(DeadlineDegradation, ExpiredBatchDeadlineRejectsWithCleanRollback) {
  UpdateSystem::Options options;
  options.op_timeout_seconds = 1e-9;  // expires before the first check
  auto sys = MakeSystem(options);
  const std::string pre = StripCache(sys->DebugFingerprint());

  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));
  Status st = sys->ApplyBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_EQ(StripCache(sys->DebugFingerprint()), pre);
}

TEST(DeadlineDegradation, ExpiredOpDeadlineRejectsInsertAndDelete) {
  UpdateSystem::Options options;
  options.op_timeout_seconds = 1e-9;
  auto sys = MakeSystem(options);
  const std::string pre = sys->DebugFingerprint();

  Status ins = sys->ApplyInsert("student", {S("S08"), S("Ada")},
                                P("course[cno=\"CS240\"]/takenBy"));
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.code(), StatusCode::kDeadlineExceeded) << ins.ToString();

  Status del = sys->ApplyDelete(P("//student[ssn=\"S02\"]"));
  ASSERT_FALSE(del.ok());
  EXPECT_EQ(del.code(), StatusCode::kDeadlineExceeded) << del.ToString();

  EXPECT_EQ(sys->DebugFingerprint(), pre);
}

TEST(DeadlineDegradation, UnboundedTimeoutStillApplies) {
  UpdateSystem::Options options;
  options.op_timeout_seconds = 3600;
  auto sys = MakeSystem(options);
  Status st = sys->ApplyInsert("student", {S("S08"), S("Ada")},
                               P("course[cno=\"CS240\"]/takenBy"));
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(DeadlineDegradation, ZeroTimeoutMeansUnboundedNotExpired) {
  // The Options edge case: op_timeout_seconds = 0 is "no deadline", not
  // Deadline::After(0) (which is already expired). Ops and batches run
  // with an infinite budget.
  UpdateSystem::Options options;
  options.op_timeout_seconds = 0;
  auto sys = MakeSystem(options);
  Status st = sys->ApplyInsert("student", {S("S08"), S("Ada")},
                               P("course[cno=\"CS240\"]/takenBy"));
  EXPECT_TRUE(st.ok()) << st.ToString();
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S09"), S("Bob")},
               P("course[cno=\"CS240\"]/takenBy"));
  Status bst = sys->ApplyBatch(batch);
  EXPECT_TRUE(bst.ok()) << bst.ToString();
}

// ----------------------------------------- branch-and-bound cover deadlines

/// All edge-view rows of the registrar sample under one parent — a small
/// but feasible minimal-deletion instance.
std::vector<ViewRowOp> SampleDeletions(const UpdateSystem& sys) {
  std::vector<ViewRowOp> dv;
  for (const std::string& vn : sys.store().EdgeViewNames()) {
    const Table* vt = sys.store().db().GetTable(vn);
    if (vt == nullptr) continue;
    vt->ForEach([&](const Tuple& row) {
      if (dv.size() < 3) dv.push_back(ViewRowOp{vn, row});
    });
    if (!dv.empty()) break;
  }
  EXPECT_FALSE(dv.empty());
  return dv;
}

TEST(DeadlineDegradation, MinimalDeletionExpiredDeadlineRejectsOnEntry) {
  auto sys = MakeSystem();
  std::vector<ViewRowOp> dv = SampleDeletions(*sys);
  for (double budget : {0.0, -5.0}) {
    MinimalDeleteOptions opts;
    opts.deadline = Deadline::After(budget);
    auto r = TranslateMinimalDeletion(sys->store(), sys->database(), dv,
                                      opts);
    ASSERT_FALSE(r.ok()) << "budget " << budget;
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << r.status().ToString();
  }
}

TEST(DeadlineDegradation, MinimalDeletionFarFutureMatchesInfinite) {
  auto sys = MakeSystem();
  std::vector<ViewRowOp> dv = SampleDeletions(*sys);
  MinimalDeleteOptions unbounded;  // default: infinite deadline
  MinimalDeleteOptions far;
  far.deadline = Deadline::After(3600);
  auto a = TranslateMinimalDeletion(sys->store(), sys->database(), dv,
                                    unbounded);
  auto b = TranslateMinimalDeletion(sys->store(), sys->database(), dv, far);
  ASSERT_EQ(a.ok(), b.ok());
  if (!a.ok()) {
    EXPECT_TRUE(a.status().IsRejected()) << a.status().ToString();
    EXPECT_EQ(a.status().code(), b.status().code());
    return;
  }
  // A budget that never expires must not change the solver's answer.
  ASSERT_EQ(a->ops.size(), b->ops.size());
  for (size_t i = 0; i < a->ops.size(); ++i) {
    EXPECT_EQ(a->ops[i].table, b->ops[i].table);
    EXPECT_TRUE(a->ops[i].row == b->ops[i].row);
  }
}

// ------------------------------------------------------- solver deadlines

Cnf HardRandomCnf(int nv, int nc, uint64_t seed) {
  Rng rng(seed);
  Cnf cnf;
  for (int i = 0; i < nv; ++i) cnf.NewVar();
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      int32_t v =
          1 + static_cast<int32_t>(rng.Below(static_cast<uint64_t>(nv)));
      clause.push_back(rng.Chance(0.5) ? v : -v);
    }
    cnf.AddClause(std::move(clause));
  }
  return cnf;
}

TEST(DeadlineDegradation, WalkSatGivesUpOnExpiredDeadline) {
  Cnf cnf = HardRandomCnf(120, 500, 7);
  WalkSatOptions opts;
  opts.deadline = Deadline::After(-1);
  SatResult res = SolveWalkSat(cnf, opts);
  EXPECT_EQ(res.kind, SatResult::Kind::kUnknown);
}

TEST(DeadlineDegradation, CdclGivesUpOnExpiredDeadline) {
  Cnf cnf = HardRandomCnf(120, 500, 7);
  CdclOptions opts;
  opts.deadline = Deadline::After(-1);
  SatResult res = SolveCdcl(cnf, opts);
  EXPECT_EQ(res.kind, SatResult::Kind::kUnknown);
}

// -------------------------------------------------- spawn-failure degrade

TEST(DeadlineDegradation, ThreadPoolDegradesWhenSpawnFails) {
  FailPoints::Trigger t;
  t.kind = FailPoints::TriggerKind::kAlways;
  t.one_shot = false;
  FailPoints::Instance().Arm(failpoints::kThreadPoolSpawn, t);
  ThreadPool pool(4);
  FailPoints::Instance().DisarmAll();

  EXPECT_EQ(pool.workers(), 1u);
  EXPECT_EQ(pool.spawn_failures(), 3u);
  // The degraded pool still completes work, serially on the caller.
  std::vector<int> out(64, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(DeadlineDegradation, PartialThreadPoolSpawnKeepsSpawnedLanes) {
  // Fail only the second spawn: the pool keeps lane 1 (caller) + lane 2.
  FailPoints::Trigger t;
  t.kind = FailPoints::TriggerKind::kNth;
  t.nth = 2;
  FailPoints::Instance().Arm(failpoints::kThreadPoolSpawn, t);
  ThreadPool pool(4);
  FailPoints::Instance().DisarmAll();

  EXPECT_EQ(pool.workers(), 2u);
  EXPECT_EQ(pool.spawn_failures(), 2u);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(DeadlineDegradation, PortfolioDegradesToInlineOnSpawnFailure) {
  // Big enough to take the threaded path (> inline_below_clauses).
  Cnf cnf = HardRandomCnf(60, 200, 11);
  PortfolioOptions opts;

  PortfolioStats clean_stats;
  SatResult clean = SolvePortfolio(cnf, opts, &clean_stats);
  ASSERT_TRUE(clean_stats.threaded);
  ASSERT_FALSE(clean_stats.degraded_spawn);

  FailPoints::Trigger t;
  t.kind = FailPoints::TriggerKind::kAlways;
  t.one_shot = false;
  FailPoints::Instance().Arm(failpoints::kPortfolioSpawn, t);
  PortfolioStats degraded_stats;
  SatResult degraded = SolvePortfolio(cnf, opts, &degraded_stats);
  FailPoints::Instance().DisarmAll();

  EXPECT_TRUE(degraded_stats.degraded_spawn);
  EXPECT_FALSE(degraded_stats.threaded);
  // The degraded inline solve returns the identical result (same
  // fixed-priority winner rule).
  EXPECT_EQ(degraded.kind, clean.kind);
  EXPECT_EQ(degraded.model, clean.model);
  EXPECT_EQ(degraded_stats.winner_lane, clean_stats.winner_lane);
}

TEST(DeadlineDegradation, PortfolioDeadlineCapsEveryLane) {
  Cnf cnf = HardRandomCnf(200, 860, 3);  // near-threshold hard instance
  PortfolioOptions opts;
  opts.deadline = Deadline::After(-1);
  PortfolioStats stats;
  SatResult res = SolvePortfolio(cnf, opts, &stats);
  // Every lane polls the deadline and gives up; no lane may loop forever.
  EXPECT_EQ(res.kind, SatResult::Kind::kUnknown);
}

TEST(DeadlineDegradation, PortfolioZeroBudgetExpiresAndFarFutureDoesNot) {
  Cnf cnf = HardRandomCnf(60, 200, 11);
  PortfolioOptions opts;

  // After(0) is already expired — same give-up path as a negative budget.
  opts.deadline = Deadline::After(0);
  SatResult expired = SolvePortfolio(cnf, opts);
  EXPECT_EQ(expired.kind, SatResult::Kind::kUnknown);

  // A far-future budget must be indistinguishable from no deadline.
  PortfolioOptions no_deadline;
  SatResult unbounded = SolvePortfolio(cnf, no_deadline);
  opts.deadline = Deadline::After(3600);
  SatResult far = SolvePortfolio(cnf, opts);
  EXPECT_EQ(far.kind, unbounded.kind);
  EXPECT_EQ(far.model, unbounded.model);
}

}  // namespace
}  // namespace xvu
