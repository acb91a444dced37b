// Fault-injection fuzz over every compiled-in fail-point site
// (src/common/failpoint.h): for each site and each hit index N that a
// reference run records, a fresh system (optionally warmed by committed
// statements) runs the same workload with the site armed to fail on its
// Nth hit, and the harness proves the all-or-nothing contract:
//
//  - a rejected op leaves the system bit-identical to its pre-op state
//    (DebugFingerprint over base tables, view store, DAG layout, M, L,
//    maintenance cursor and ∆V journal tail);
//  - retrying after the fault succeeds and lands bit-identical to a
//    never-faulted run;
//  - absorbed faults (maintenance-merge sites degrade to a full rebuild)
//    still commit, matching the reference up to GC ordering.
//
// Registered under the ctest label `fault` (CMakeLists.txt), and part of
// the sanitizer jobs in CI.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/failpoint.h"
#include "src/core/pipeline.h"
#include "src/core/system.h"
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

/// The incremental state must also equal a from-scratch republication.
void ExpectConsistent(UpdateSystem& sys) {
  auto fresh = sys.Republish();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(sys.dag().CanonicalEdges(), fresh->CanonicalEdges());
  EXPECT_TRUE(sys.topo().Check(sys.dag()).ok());
}

// The pre-op/post-fault comparison excludes the cache (StripCache); the
// retry-vs-reference comparison keeps it.
using testing_util::StripCache;

/// Sites where an injected fault is *absorbed*: the op still succeeds,
/// degraded (the batch maintenance merge falls back to a full rebuild).
bool IsAbsorbedSite(const std::string& site) {
  return site == failpoints::kJournalAppend ||
         site == failpoints::kMaintainMerge;
}

FailPoints::Trigger NthTrigger(uint64_t n) {
  FailPoints::Trigger t;
  t.kind = FailPoints::TriggerKind::kNth;
  t.nth = n;
  t.one_shot = true;
  t.code = StatusCode::kInternal;
  return t;
}

/// Runs `op` (which must succeed fault-free) under every (site, Nth-hit)
/// combination the discovery pass records, checking rollback bit-identity
/// and retry convergence against the never-faulted reference. Every run —
/// the discovery pass and each swept attempt — first commits the
/// statements of `prefix`, so the op can start from M and L that earlier
/// writes maintained instead of from Create's.
void SweepAllSites(const std::function<std::unique_ptr<UpdateSystem>()>& make,
                   const std::function<Status(UpdateSystem&)>& op,
                   size_t min_swept,
                   const std::vector<std::string>& prefix = {}) {
  auto start = [&] {
    auto sys = make();
    for (const std::string& stmt : prefix) {
      Status st = sys->ApplyStatement(stmt);
      EXPECT_TRUE(st.ok()) << stmt << ": " << st.ToString();
    }
    return sys;
  };
  // Discovery: count every site's hits in one clean run.
  std::map<std::string, uint64_t> hits;
  std::string reference_fp;
  std::string reference_fp_relaxed;
  {
    auto sys = start();
    FailPoints::Instance().ArmAllCounting();
    Status st = op(*sys);
    for (const std::string& site : FailPoints::AllSites()) {
      hits[site] = FailPoints::Instance().HitCount(site);
    }
    FailPoints::Instance().DisarmAll();
    ASSERT_TRUE(st.ok()) << "reference run failed: " << st.ToString();
    reference_fp = sys->DebugFingerprint();
    reference_fp_relaxed = sys->DebugFingerprint(/*strict=*/false);
  }

  size_t swept = 0;
  for (const auto& [site, count] : hits) {
    for (uint64_t n = 1; n <= count; ++n) {
      SCOPED_TRACE(site + " hit #" + std::to_string(n));
      ++swept;
      auto sys = start();
      const std::string pre_fp = StripCache(sys->DebugFingerprint());

      FailPoints::Instance().Arm(site, NthTrigger(n));
      Status st = op(*sys);
      FailPoints::Instance().DisarmAll();

      if (IsAbsorbedSite(site)) {
        // Degraded but committed: same state as the reference up to GC
        // ordering (parent-vector layout, journal interleaving).
        ASSERT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(sys->DebugFingerprint(/*strict=*/false),
                  reference_fp_relaxed);
        ExpectConsistent(*sys);
        continue;
      }

      // Injected hard fault: the op must fail with the injected code and
      // every structure must be bit-identical to the pre-op state.
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
      ASSERT_EQ(StripCache(sys->DebugFingerprint()), pre_fp);

      // A second faulted attempt fails the same way and the state stays
      // put — now bit-identical including the eval cache, which the
      // first attempt warmed and the rollback deliberately kept.
      FailPoints::Instance().Arm(site, NthTrigger(n));
      Status st2 = op(*sys);
      FailPoints::Instance().DisarmAll();
      ASSERT_FALSE(st2.ok());
      const std::string between_fp = sys->DebugFingerprint();

      FailPoints::Instance().Arm(site, NthTrigger(n));
      Status st3 = op(*sys);
      FailPoints::Instance().DisarmAll();
      ASSERT_FALSE(st3.ok());
      EXPECT_EQ(sys->DebugFingerprint(), between_fp);

      // Retry without the fault: must succeed and converge to the
      // never-faulted end state.
      Status retry = op(*sys);
      ASSERT_TRUE(retry.ok()) << retry.ToString();
      EXPECT_EQ(sys->DebugFingerprint(), reference_fp);
      ExpectConsistent(*sys);
    }
  }
  // The sweep is vacuous if the workload dodges the sites it should hit.
  EXPECT_GE(swept, min_swept) << "workload hit too few injection sites";
}

TEST(FaultInjection, BatchSurvivesEverySiteAndHit) {
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));
  batch.Insert("student", {S("S09"), S("Lin")},
               P("course[cno=\"CS650\"]/takenBy"));
  SweepAllSites([] { return MakeSystem(); },
                [&](UpdateSystem& sys) { return sys.ApplyBatch(batch); },
                /*min_swept=*/10);
}

TEST(FaultInjection, SingleInsertSurvivesEverySiteAndHit) {
  SweepAllSites([] { return MakeSystem(); }, [](UpdateSystem& sys) {
    return sys.ApplyInsert("student", {S("S08"), S("Ada")},
                           P("course[cno=\"CS240\"]/takenBy"));
  }, /*min_swept=*/3);
}

TEST(FaultInjection, SingleDeleteSurvivesEverySiteAndHit) {
  SweepAllSites([] { return MakeSystem(); }, [](UpdateSystem& sys) {
    return sys.ApplyDelete(P("//student[ssn=\"S02\"]"));
  }, /*min_swept=*/2);
}

/// Committed before each run of the warm sweeps: one statement insert and
/// one statement delete.
const std::vector<std::string> kWarmPrefix = {
    "insert student(S07, Grace) into course[cno=\"CS650\"]/takenBy",
    "delete //student[ssn=\"S03\"]",
};

TEST(FaultInjection, SingleInsertAfterCommittedWritesSurvivesEverySiteAndHit) {
  SweepAllSites([] { return MakeSystem(); }, [](UpdateSystem& sys) {
    return sys.ApplyInsert("student", {S("S08"), S("Ada")},
                           P("course[cno=\"CS240\"]/takenBy"));
  }, /*min_swept=*/3, kWarmPrefix);
}

TEST(FaultInjection, SingleDeleteAfterCommittedWritesSurvivesEverySiteAndHit) {
  SweepAllSites([] { return MakeSystem(); }, [](UpdateSystem& sys) {
    return sys.ApplyDelete(P("//student[ssn=\"S02\"]"));
  }, /*min_swept=*/2, kWarmPrefix);
}

TEST(FaultInjection, MinimalDeleteSurvivesEverySiteAndHit) {
  UpdateSystem::Options options;
  options.minimal_deletions = true;
  SweepAllSites([&] { return MakeSystem(options); }, [](UpdateSystem& sys) {
    return sys.ApplyDelete(P("//student[ssn=\"S01\"]"));
  }, /*min_swept=*/2);
}

TEST(FaultInjection, BatchWorkloadCoversTheMaintenanceSites) {
  // The sweep above is only meaningful if the mixed batch actually
  // reaches the absorbed (degrade-to-rebuild) sites and the reclaim path.
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));
  batch.Insert("student", {S("S09"), S("Lin")},
               P("course[cno=\"CS650\"]/takenBy"));
  auto sys = MakeSystem();
  FailPoints::Instance().ArmAllCounting();
  ASSERT_TRUE(sys->ApplyBatch(batch).ok());
  EXPECT_GT(FailPoints::Instance().HitCount(failpoints::kJournalAppend), 0u);
  EXPECT_GT(FailPoints::Instance().HitCount(failpoints::kMaintainMerge), 0u);
  EXPECT_GT(FailPoints::Instance().HitCount(failpoints::kBatchReclaim), 0u);
  EXPECT_GT(FailPoints::Instance().HitCount(failpoints::kBatchApplyPublish),
            0u);
  FailPoints::Instance().DisarmAll();
}

TEST(FaultInjection, RejectedOpKeepsStatsOfTheRejectedAttempt) {
  // stats() reports the most recent attempt — rejected ops included —
  // and is NOT part of the rollback contract; but a retry's stats must
  // equal a never-faulted run's for the deterministic counters.
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));

  auto reference = MakeSystem();
  ASSERT_TRUE(reference->ApplyBatch(batch).ok());
  const UpdateStats& ref = reference->last_stats();

  auto sys = MakeSystem();
  FailPoints::Instance().Arm(failpoints::kBatchApplyPublish, NthTrigger(1));
  ASSERT_FALSE(sys->ApplyBatch(batch).ok());
  FailPoints::Instance().DisarmAll();
  ASSERT_TRUE(sys->ApplyBatch(batch).ok());

  const UpdateStats& got = sys->last_stats();
  EXPECT_EQ(got.batch_ops, ref.batch_ops);
  EXPECT_EQ(got.delta_v, ref.delta_v);
  EXPECT_EQ(got.delta_r, ref.delta_r);
  EXPECT_EQ(got.maintenance_passes, ref.maintenance_passes);
}

TEST(FaultInjection, ProbabilisticArmingIsDeterministic) {
  // Two runs with the same seed fire on exactly the same hits.
  UpdateBatch batch;
  batch.Delete(P("//student[ssn=\"S02\"]"));
  batch.Insert("student", {S("S08"), S("Ada")},
               P("course[cno=\"CS240\"]/takenBy"));

  auto run = [&]() {
    auto sys = MakeSystem();
    FailPoints::Trigger t;
    t.kind = FailPoints::TriggerKind::kProbability;
    t.probability = 0.5;
    t.seed = 1234;
    t.one_shot = false;
    FailPoints::Instance().Arm(failpoints::kBatchApplyConnect, t);
    Status st = sys->ApplyBatch(batch);
    auto stats =
        FailPoints::Instance().GetStats(failpoints::kBatchApplyConnect);
    FailPoints::Instance().DisarmAll();
    return std::make_pair(st.ToString(), stats.fires);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace xvu
