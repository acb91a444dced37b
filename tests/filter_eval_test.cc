// Differential tests of the one production filter evaluator
// (NodeFilterEval) and of the evaluations built on it, against the
// whole-view qualifier DP and the naive recursive evaluator kept in
// tests/oracles/.

#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/evaluator.h"
#include "src/core/filter_eval.h"
#include "src/core/system.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "src/workload/synthetic.h"
#include "src/xpath/parser.h"
#include "tests/oracles/qualifier_dp.h"
#include "tests/oracles/xpath_naive.h"
#include "tests/test_util.h"

namespace xvu {
namespace {

using testing_util::RandomDag;

/// Random qualifiers and paths over RandomDag's alphabet: element types
/// root/a/b, and node i's text is "i".
class QueryGen {
 public:
  QueryGen(uint64_t seed, size_t num_nodes) : rng_(seed), n_(num_nodes) {}

  /// A qualifier of nesting depth at most `depth`: and/or/not,
  /// label() = A, path existence and value equality on `.` or on a
  /// relative path, whose steps may carry nested qualifiers.
  std::string Filter(int depth) {
    if (depth > 0 && rng_.Chance(0.45)) {
      switch (rng_.Below(3)) {
        case 0:
          return "(" + Filter(depth - 1) + " and " + Filter(depth - 1) + ")";
        case 1:
          return "(" + Filter(depth - 1) + " or " + Filter(depth - 1) + ")";
        default:
          return "not(" + Filter(depth - 1) + ")";
      }
    }
    switch (rng_.Below(5)) {
      case 0:
        return std::string("label()=") + Label();
      case 1:
        return ".=\"" + Text() + "\"";
      case 2:
        return RelPath(depth) + "=\"" + Text() + "\"";
      default:
        return RelPath(depth);
    }
  }

  /// A path from the root: 1-4 steps joined by / or //, some filtered.
  std::string RootPath() {
    std::string out = rng_.Chance(0.5) ? "//" : "";
    size_t steps = 1 + rng_.Below(4);
    for (size_t i = 0; i < steps; ++i) {
      if (i > 0) out += rng_.Chance(0.4) ? "//" : "/";
      out += Step(2);
    }
    return out;
  }

 private:
  const char* Label() {
    static const char* kLabels[] = {"a", "b", "root"};
    return kLabels[rng_.Below(3)];
  }

  std::string Text() { return std::to_string(rng_.Below(n_)); }

  /// One child step, optionally carrying a qualifier.
  std::string Step(int depth) {
    static const char* kTests[] = {"a", "b", "*"};
    std::string out = kTests[rng_.Below(3)];
    if (depth > 0 && rng_.Chance(0.3)) out += "[" + Filter(depth - 1) + "]";
    return out;
  }

  /// A relative path for use inside a qualifier: child and `//` steps,
  /// possibly starting with `.//`.
  std::string RelPath(int depth) {
    std::string out = rng_.Chance(0.4) ? ".//" : "";
    size_t steps = 1 + rng_.Below(3);
    for (size_t i = 0; i < steps; ++i) {
      if (i > 0) out += rng_.Chance(0.3) ? "//" : "/";
      out += Step(depth);
    }
    return out;
  }

  Rng rng_;
  size_t n_;
};

Path MustParse(const std::string& text) {
  auto p = ParseXPath(text);
  EXPECT_TRUE(p.ok()) << text << ": " << p.status().ToString();
  return p.ok() ? std::move(*p) : Path{};
}

/// The qualifier of `*[text]`.
FilterPtr ParseFilter(const std::string& text) {
  Path p = MustParse("*[" + text + "]");
  if (p.steps.size() != 1 || p.steps[0].filters.size() != 1) {
    ADD_FAILURE() << "not a single qualifier: " << text;
    return nullptr;
  }
  return p.steps[0].filters[0];
}

struct Fixture {
  DagView dag;
  TopoOrder topo;
  Reachability reach;

  explicit Fixture(DagView d) : dag(std::move(d)) {
    auto t = TopoOrder::Compute(dag);
    EXPECT_TRUE(t.ok());
    topo = std::move(*t);
    reach = Reachability::Compute(dag, topo);
  }
};

void ExpectSameTracedEval(const CachedEval& got, const CachedEval& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.reached.size(), want.reached.size()) << ctx;
  for (size_t i = 0; i < got.reached.size(); ++i) {
    EXPECT_EQ(got.reached[i].items, want.reached[i].items)
        << ctx << ": reached[" << i << "]";
  }
  EXPECT_EQ(got.result.selected, want.result.selected) << ctx;
  EXPECT_EQ(got.result.parent_edges, want.result.parent_edges) << ctx;
  EXPECT_EQ(got.result.side_effect_nodes, want.result.side_effect_nodes)
      << ctx;
}

struct DagShape {
  size_t nodes;
  double extra_edge_prob;
};
constexpr DagShape kShapes[] = {{24, 0.5}, {90, 0.35}, {220, 0.25}};
constexpr uint64_t kSeeds[] = {1, 2, 3};

TEST(FilterEval, AgreesWithDpAndNaiveOraclesOnRandomFilters) {
  constexpr int kFiltersPerDag = 200;
  for (const DagShape& shape : kShapes) {
    for (uint64_t seed : kSeeds) {
      Fixture f(RandomDag(shape.nodes, shape.extra_edge_prob, seed));
      QualifierDp dp(&f.dag, &f.topo);
      NaiveXPath naive(&f.dag);
      // One evaluator per DAG, as one evaluation shares it across its
      // filter steps; nodes are asked in a shuffled order so memo
      // entries get filled from different starting points.
      NodeFilterEval eval(f.dag);
      std::vector<NodeId> nodes = f.dag.LiveNodes();
      Rng order_rng(seed * 7919 + shape.nodes);
      QueryGen gen(seed * 104729 + shape.nodes, shape.nodes);
      std::vector<FilterPtr> keep;  // memo entries are keyed by address
      for (int k = 0; k < kFiltersPerDag; ++k) {
        const std::string text = gen.Filter(3);
        FilterPtr q = ParseFilter(text);
        ASSERT_NE(q, nullptr);
        keep.push_back(q);
        std::vector<uint8_t> want = dp.Eval(*q);
        for (size_t i = nodes.size(); i > 1; --i) {
          std::swap(nodes[i - 1], nodes[order_rng.Below(i)]);
        }
        for (NodeId v : nodes) {
          const bool got = eval.Eval(*q, v);
          ASSERT_EQ(got, want[v] != 0)
              << "filter [" << text << "] at node " << v << ", "
              << shape.nodes << " nodes, seed " << seed;
          ASSERT_EQ(got, naive.Filter(*q, v))
              << "naive: filter [" << text << "] at node " << v << ", "
              << shape.nodes << " nodes, seed " << seed;
        }
      }
    }
  }
}

TEST(FilterEval, EvaluateTracedMatchesDpEvaluationOnRandomPaths) {
  constexpr int kPathsPerDag = 120;
  for (const DagShape& shape : kShapes) {
    for (uint64_t seed : kSeeds) {
      Fixture f(RandomDag(shape.nodes, shape.extra_edge_prob, seed));
      XPathEvaluator ev(&f.dag, &f.reach);
      NaiveXPath naive(&f.dag);
      QueryGen gen(seed * 15485863 + shape.nodes, shape.nodes);
      for (int k = 0; k < kPathsPerDag; ++k) {
        const std::string text = gen.RootPath();
        const std::string ctx = text + ", " + std::to_string(shape.nodes) +
                                " nodes, seed " + std::to_string(seed);
        Path p = MustParse(text);
        auto got = ev.EvaluateTraced(p);
        ASSERT_TRUE(got.ok()) << ctx;
        ExpectSameTracedEval(
            *got, EvaluateTracedWithQualifierDp(f.dag, f.topo, f.reach, p),
            ctx);
        std::set<NodeId> selected(got->result.selected.begin(),
                                  got->result.selected.end());
        EXPECT_EQ(selected, naive.Eval(p)) << ctx;
        // The untraced evaluation stops at a dead frontier but must
        // derive the same result.
        auto plain = ev.Evaluate(p);
        ASSERT_TRUE(plain.ok()) << ctx;
        EXPECT_EQ(plain->selected, got->result.selected) << ctx;
        EXPECT_EQ(plain->side_effect_nodes, got->result.side_effect_nodes)
            << ctx;
      }
    }
  }
}

TEST(FilterEval, EvaluateTracedMatchesDpEvaluationOnSyntheticView) {
  SyntheticSpec spec;
  spec.num_c = 300;
  spec.payload_domain = 10;
  auto db = MakeSyntheticDatabase(spec);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto atg = MakeSyntheticAtg(*db);
  ASSERT_TRUE(atg.ok()) << atg.status().ToString();
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  const UpdateSystem& s = **sys;
  XPathEvaluator ev(&s.dag(), &s.reachability());
  NaiveXPath naive(&s.dag());
  for (const char* q : {
           "C[cid=\"55\"]/sub", "//C[cid=\"55\"]/sub",
           "//C[payload=\"7\"]/sub/C", "//C[sub/C[payload=\"3\"]]",
           "//C[sub/C]", "//C[sub/C and not(buddies/B)]/sub", "//*[.//B]",
           "//C[not(.//B)]", "//C[payload=\"2\" or cid=\"12\"]//B",
           "//sub[C/buddies/B]/C[.//C[payload=\"1\"]]",
       }) {
    Path p = MustParse(q);
    auto got = ev.EvaluateTraced(p);
    ASSERT_TRUE(got.ok()) << q;
    ExpectSameTracedEval(
        *got, EvaluateTracedWithQualifierDp(s.dag(), s.topo(),
                                            s.reachability(), p),
        q);
    std::set<NodeId> selected(got->result.selected.begin(),
                              got->result.selected.end());
    EXPECT_EQ(selected, naive.Eval(p)) << q;
  }
}

/// Runs `fn` on a thread with a `stack_bytes` stack and waits for it.
void RunOnStack(size_t stack_bytes, const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  auto entry = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, entry,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

/// A chain root -> n1 -> ... -> n_depth whose last node alone is a `z`.
/// NodeFilterEval is called directly, so no M is built. The queries run
/// on a thread with a 1 MiB stack: a walk that recursed along the chain
/// needs a frame per node and overflows it, where the explicit-stack
/// walk needs a few frames per query step.
TEST(FilterEval, DescendantFilterAtTheRootOfADeepChain) {
  constexpr size_t kDepth = 150000;
  DagView dag;
  NodeId root = dag.GetOrAddNode("root", {Value::Int(0)});
  dag.SetRoot(root);
  std::vector<NodeId> chain = {root};
  for (size_t i = 1; i <= kDepth; ++i) {
    NodeId v = dag.GetOrAddNode(i == kDepth ? "z" : "n",
                                {Value::Int(static_cast<int64_t>(i))});
    dag.AddEdge(chain.back(), v);
    chain.push_back(v);
  }
  const NodeId last = chain[kDepth];
  const NodeId above_last = chain[kDepth - 1];
  // `.//z` asks for a z child of a descendant-or-self node.
  FilterPtr has_z = ParseFilter(".//z");
  FilterPtr has_y = ParseFilter(".//y");
  FilterPtr z_below_n = ParseFilter(".//n//z");
  FilterPtr value_deep =
      ParseFilter(".//*=\"" + std::to_string(kDepth) + "\"");
  RunOnStack(size_t{1} << 20, [&] {
    NodeFilterEval eval(dag);
    EXPECT_TRUE(eval.Eval(*has_z, root));
    EXPECT_FALSE(eval.Eval(*has_y, root));  // walks the whole chain
    EXPECT_TRUE(eval.Eval(*z_below_n, root));
    EXPECT_TRUE(eval.Eval(*value_deep, root));
    // Answers left in the memo by the walks from the root, and one the
    // walks never reached.
    EXPECT_TRUE(eval.Eval(*has_z, above_last));
    EXPECT_FALSE(eval.Eval(*has_y, chain[kDepth / 2]));
    EXPECT_FALSE(eval.Eval(*has_z, last));
    // A fresh evaluator asked bottom-up first, then at the root.
    NodeFilterEval fresh(dag);
    EXPECT_FALSE(fresh.Eval(*z_below_n, last));
    EXPECT_FALSE(fresh.Eval(*z_below_n, above_last));  // its child is z
    EXPECT_TRUE(fresh.Eval(*z_below_n, chain[kDepth - 2]));
    EXPECT_TRUE(fresh.Eval(*z_below_n, root));
  });
}

}  // namespace
}  // namespace xvu
