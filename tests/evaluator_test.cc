#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "src/atg/publisher.h"
#include "src/core/evaluator.h"
#include "src/workload/registrar.h"
#include "src/xpath/parser.h"
#include "tests/oracles/xpath_naive.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

Path P(const std::string& s) {
  auto p = ParseXPath(s);
  EXPECT_TRUE(p.ok()) << s << ": " << p.status().ToString();
  return p.ok() ? *p : Path{};
}

struct EvalFixture {
  DagView dag;
  Reachability reach;

  explicit EvalFixture(DagView d) : dag(std::move(d)) {
    auto topo = TopoOrder::Compute(dag);
    EXPECT_TRUE(topo.ok());
    reach = Reachability::Compute(dag, *topo);
  }

  std::set<NodeId> Selected(const Path& p) {
    XPathEvaluator ev(&dag, &reach);
    auto r = ev.Evaluate(p);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::set<NodeId>(r->selected.begin(), r->selected.end());
  }
};

DagView RegistrarDag() {
  auto db = MakeRegistrarDatabase();
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  EXPECT_TRUE(atg.ok());
  Publisher pub(&*atg, &*db);
  auto dag = pub.PublishAll(nullptr);
  EXPECT_TRUE(dag.ok()) << dag.status().ToString();
  return std::move(*dag);
}

TEST(Evaluator, PaperP0SelectsPrereqBelowCS650) {
  EvalFixture f(RegistrarDag());
  auto sel =
      f.Selected(P("course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq"));
  ASSERT_EQ(sel.size(), 1u);
  NodeId prereq320 = f.dag.FindNode("prereq", {Value::Str("CS320")});
  EXPECT_EQ(*sel.begin(), prereq320);
}

TEST(Evaluator, RecursiveDescentFindsAllStudents) {
  EvalFixture f(RegistrarDag());
  auto sel = f.Selected(P("//student"));
  EXPECT_EQ(sel.size(), 3u);
  auto s02 = f.Selected(P("//student[ssn=\"S02\"]"));
  EXPECT_EQ(s02.size(), 1u);
}

TEST(Evaluator, Example4DeleteTarget) {
  // //course[cno=CS320]//student[ssn=S02]
  EvalFixture f(RegistrarDag());
  auto sel =
      f.Selected(P("//course[cno=\"CS320\"]//student[ssn=\"S02\"]"));
  ASSERT_EQ(sel.size(), 1u);
  NodeId s02 = f.dag.FindNode(
      "student", {Value::Str("S02"), Value::Str("Bob")});
  EXPECT_EQ(*sel.begin(), s02);
}

TEST(Evaluator, Example5ParentEdges) {
  // delete //student[ssn=S02]: S02 is enrolled in CS320 and CS240, so
  // Ep(r) holds both takenBy parents (∆V2 of Example 5).
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  auto r = ev.Evaluate(P("//student[ssn=\"S02\"]"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  EXPECT_EQ(r->parent_edges.size(), 2u);
  for (const auto& [u, v] : r->parent_edges) {
    EXPECT_EQ(f.dag.node(u).type, "takenBy");
    EXPECT_EQ(v, r->selected[0]);
  }
}

TEST(Evaluator, ParentEdgesAfterChildStep) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // CS140 under the prereq of CS320 only (not the CS240 occurrence).
  auto r = ev.Evaluate(
      P("course[cno=\"CS320\"]/prereq/course[cno=\"CS140\"]"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  ASSERT_EQ(r->parent_edges.size(), 1u);
  NodeId parent = r->parent_edges[0].first;
  EXPECT_EQ(f.dag.node(parent).type, "prereq");
  EXPECT_EQ(f.dag.node(parent).attr[0], Value::Str("CS320"));
}

TEST(Evaluator, SideEffectsDetectedForSharedSubtrees) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // CS140 below CS320 also hangs under CS240's prereq and the root:
  // updating it through this path has side effects.
  auto r = ev.Evaluate(
      P("course[cno=\"CS320\"]/prereq/course[cno=\"CS140\"]"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->has_side_effects());
  // The off-path parents show up in S.
  bool found_other_prereq = false;
  for (NodeId s : r->side_effect_nodes) {
    if (f.dag.node(s).type == "prereq" &&
        f.dag.node(s).attr[0] == Value::Str("CS240")) {
      found_other_prereq = true;
    }
  }
  EXPECT_TRUE(found_other_prereq);
}

TEST(Evaluator, NoFalseSideEffectsOnUnsharedPath) {
  EvalFixture f(RegistrarDag());
  XPathEvaluator ev(&f.dag, &f.reach);
  // The takenBy node of CS650 is unique to CS650.
  auto r = ev.Evaluate(P("course[cno=\"CS650\"]/takenBy"));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->selected.size(), 1u);
  EXPECT_FALSE(r->has_side_effects());
}

TEST(Evaluator, WildcardAndLabelFilters) {
  EvalFixture f(RegistrarDag());
  auto all_children = f.Selected(P("course[cno=\"CS650\"]/*"));
  EXPECT_EQ(all_children.size(), 4u);
  auto only_prereq =
      f.Selected(P("course[cno=\"CS650\"]/*[label()=prereq]"));
  EXPECT_EQ(only_prereq.size(), 1u);
}

TEST(Evaluator, BooleanFilterCombinations) {
  EvalFixture f(RegistrarDag());
  auto both = f.Selected(
      P("//course[prereq/course and takenBy/student[ssn=\"S02\"]]"));
  // CS320 (has prereq CS140, taken by S02) and CS240 (prereq CS140,
  // taken by S02).
  EXPECT_EQ(both.size(), 2u);
  auto neg = f.Selected(P("//course[not(prereq/course)]"));
  // CS140 has no prerequisites.
  ASSERT_EQ(neg.size(), 1u);
  EXPECT_EQ(f.dag.node(*neg.begin()).attr[0], Value::Str("CS140"));
}

TEST(Evaluator, EmptySelectionOnNoMatch) {
  EvalFixture f(RegistrarDag());
  EXPECT_TRUE(f.Selected(P("//course[cno=\"CS777\"]")).empty());
  EXPECT_TRUE(f.Selected(P("student/course")).empty());
}

TEST(Evaluator, SelfPathSelectsRoot) {
  EvalFixture f(RegistrarDag());
  auto sel = f.Selected(P("."));
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(*sel.begin(), f.dag.root());
}

TEST(Evaluator, MatchesNaiveOracleOnRegistrar) {
  EvalFixture f(RegistrarDag());
  NaiveXPath naive(&f.dag);
  for (const char* q : {
           "//course", "//student", "course/prereq/course",
           "//course[cno=\"CS320\"]//student",
           "course[cno=\"CS650\"]//course[cno=\"CS320\"]/prereq",
           "//*[label()=takenBy]", "//course[not(takenBy/student)]",
           "course[prereq/course[prereq/course]]",
           "//student[ssn=\"S02\" or ssn=\"S03\"]", "*/*", "//*",
           "course//course", "//takenBy/student[name=\"Alice\"]",
       }) {
    Path p = P(q);
    auto expected = naive.Eval(p);
    auto got = f.Selected(p);
    EXPECT_EQ(got, expected) << q;
  }
}

TEST(Evaluator, MatchesNaiveOracleOnRandomDags) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EvalFixture f(RandomDag(60, 0.4, seed));
    NaiveXPath naive(&f.dag);
    for (const char* q : {
             "//a", "//b", "a/b", "//a/b", "//a//b", "*",
             "//a[b]", "//b[not(a)]", "//*[label()=a]",
             "//a[.=\"7\"]", "//b[a or b]", "a//b//a",
         }) {
      Path p = P(q);
      EXPECT_EQ(f.Selected(p), naive.Eval(p))
          << q << " seed " << seed;
    }
  }
}

TEST(Evaluator, TextEqualityOnPcdata) {
  EvalFixture f(RegistrarDag());
  // cno nodes carry their text as the single attribute field.
  auto sel = f.Selected(P("//cno[.=\"CS320\"]"));
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(f.dag.TextOf(*sel.begin()), "CS320");
}

}  // namespace
}  // namespace xvu
