// Configuration-surface tests: solver choices, work caps, and policies
// exposed through UpdateSystem::Options / InsertOptions.

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/workload/synthetic.h"

namespace xvu {
namespace {

std::unique_ptr<UpdateSystem> MakeSyntheticSystem(
    UpdateSystem::Options opts, double g_uniform_prob = 1.0) {
  SyntheticSpec spec;
  spec.num_c = 80;
  spec.k_coverage = 0.0;  // all buddy inserts go through the encoding
  spec.g_uniform_prob = g_uniform_prob;
  spec.seed = 21;
  auto db = MakeSyntheticDatabase(spec);
  EXPECT_TRUE(db.ok());
  auto atg = MakeSyntheticAtg(*db);
  EXPECT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), opts);
  EXPECT_TRUE(sys.ok());
  return std::move(*sys);
}

TEST(Options, CdclOnlyPortfolioAcceptsSatisfiableBuddyInsert) {
  UpdateSystem::Options opts;
  opts.insert.portfolio.walksat_lanes = 0;  // complete solver only
  auto sys = MakeSyntheticSystem(opts);
  Status st =
      sys->ApplyStatement("insert B(777777) into //C[cid=\"3\"]/buddies");
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(sys->last_stats().used_sat);
}

TEST(Options, CdclLaneProvesUnsat) {
  // Every group is mixed, so no assignment exists; the portfolio's
  // complete CDCL lane proves it.
  UpdateSystem::Options opts;
  auto sys = MakeSyntheticSystem(opts, /*g_uniform_prob=*/0.0);
  Status st =
      sys->ApplyStatement("insert B(777777) into //C[cid=\"3\"]/buddies");
  ASSERT_TRUE(st.IsRejected());
  // The message distinguishes "provably none exists" from "gave up".
  EXPECT_NE(st.message().find("provably"), std::string::npos)
      << st.ToString();
}

TEST(Options, WorkCapRejectsInsteadOfHanging) {
  UpdateSystem::Options opts;
  opts.insert.max_symbolic_candidates = 1;  // absurdly small
  auto sys = MakeSyntheticSystem(opts);
  Status st =
      sys->ApplyStatement("insert B(777777) into //C[cid=\"3\"]/buddies");
  ASSERT_TRUE(st.IsRejected());
  EXPECT_NE(st.message().find("work cap"), std::string::npos);
  // Nothing leaked into the state.
  auto fresh = sys->Republish();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(sys->dag().CanonicalEdges(), fresh->CanonicalEdges());
}

TEST(Options, SideEffectPoliciesDiffer) {
  // A path that restricts the occurrence context — C[P]/sub/C[X] with X
  // shared by other parents — selects only the occurrence under P, so
  // updating X's subtree has side effects (the other occurrences change
  // too). Note the contrast with //C[cid=X], which matches *every*
  // occurrence and therefore has none.
  UpdateSystem::Options proceed;
  auto sys = MakeSyntheticSystem(proceed);
  // Find an edge sub(P) -> X where X has more than one parent.
  std::string p_cid, x_cid;
  for (NodeId v : sys->dag().LiveNodes()) {
    if (sys->dag().node(v).type != "sub") continue;
    for (NodeId x : sys->dag().children(v)) {
      if (sys->dag().parents(x).size() > 1) {
        p_cid = sys->dag().node(v).attr[0].ToString();
        x_cid = sys->dag().node(x).attr[0].ToString();
        break;
      }
    }
    if (!p_cid.empty()) break;
  }
  ASSERT_FALSE(p_cid.empty());
  std::string stmt = "insert C(888888, 1) into C[cid=\"" + p_cid +
                     "\"]/sub/C[cid=\"" + x_cid + "\"]/sub";
  UpdateSystem::Options abort_opts;
  abort_opts.side_effects = SideEffectPolicy::kAbort;
  auto cautious = MakeSyntheticSystem(abort_opts);
  Status st_abort = cautious->ApplyStatement(stmt);
  EXPECT_TRUE(st_abort.IsRejected()) << st_abort.ToString();
  EXPECT_TRUE(cautious->last_stats().had_side_effects);

  // The unrestricted form of the same target has no side effects.
  auto probe = sys->Query("//C[cid=\"" + x_cid + "\"]/sub");
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->has_side_effects());

  Status st_proceed = sys->ApplyStatement(stmt);
  // Under kProceed the op may still be rejected for *relational* reasons
  // (X's C-F filter failing); side effects alone must not reject it.
  if (st_proceed.ok()) {
    EXPECT_TRUE(sys->last_stats().had_side_effects);
    auto fresh = sys->Republish();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(sys->dag().CanonicalEdges(), fresh->CanonicalEdges());
  } else {
    EXPECT_EQ(st_proceed.message().find("side effects"), std::string::npos)
        << st_proceed.ToString();
  }
}

}  // namespace
}  // namespace xvu
