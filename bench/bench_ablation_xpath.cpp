// XPath evaluation sweep: production evaluation (UpdateSystem::Query,
// whose filter steps ask NodeFilterEval about each context node) against
// the two references in tests/oracles/: the whole-view qualifier DP of
// Section 3.2 (EvaluateTracedWithQualifierDp, which fills a bitmap over
// every node per filter) and the naive recursive evaluator (NaiveXPath,
// which re-walks every filter path from every context node).
//
// Per |C| of Sizes() and per query shape, the bench first checks that the
// three evaluations select the same nodes, then times each. The shapes:
//   - value filters: a value compare under each context node, from a
//     narrow context (`C[cid="55"]`) and from every C node;
//   - structural filters on every C node;
//   - `//` inside a filter, every node of the view a context.
// Self-verifying: any disagreement fails the run. Timing bars apply at
// |C| = 10000 only: no shape may be slower than the DP oracle by more
// than 2x, and the value-filter shapes must beat it. Other sizes are
// reported, not gated; at |C| = 50000 the `//`-inside-a-filter shapes
// read about 1.4-1.9x, as the per-node walks follow edges through a
// 227k-node view while the DP scans it in L order. Under ctest the
// bench runs at |C| = 1000, where only the agreement checks gate.
//
// Emits BENCH_xpath.json (override with XVU_BENCH_JSON), one row per
// (size, shape). Knob: XVU_BENCH_MAX_C (default 50000).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/xpath/parser.h"
#include "tests/oracles/qualifier_dp.h"
#include "tests/oracles/xpath_naive.h"

namespace xvu {
namespace bench {
namespace {

constexpr size_t kBarC = 10000;
constexpr double kMaxSlowdownVsDp = 2.0;

struct Shape {
  const char* kind;  // value_filter | structural_filter | desc_in_filter
  const char* query;
};

const Shape kShapes[] = {
    {"value_filter", "C[cid=\"55\"]/sub"},
    {"value_filter", "//C[cid=\"55\"]/sub"},
    {"value_filter", "//C[payload=\"7\"]/sub/C"},
    {"value_filter", "//C[sub/C[payload=\"3\"]]"},
    {"structural_filter", "//C[sub/C]"},
    {"structural_filter", "//C[sub/C and not(buddies/B)]/sub"},
    {"desc_in_filter", "//*[.//B]"},
    {"desc_in_filter", "//C[not(.//B)]"},
};

struct Row {
  size_t c = 0;
  const Shape* shape = nullptr;
  size_t selected = 0;
  double production_ms = 0;
  double dp_ms = 0;
  double ratio = 0;  // median of the per-repetition production / DP ratios
  double naive_ms = 0;
};

/// Medians of two timed operations and of their per-repetition ratio.
struct PairedMs {
  double a_ms = 0, b_ms = 0, ratio = 0;
};

/// Runs `a` and `b` back to back in each of `reps` repetitions, after one
/// unmeasured run of each, so both sides see the same machine load; the
/// ratio is the median of the per-repetition ratios a / b.
template <typename A, typename B>
PairedMs TimePaired(A&& a, B&& b, int reps = 11) {
  using Clock = std::chrono::steady_clock;
  auto ms = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  a();
  b();
  std::vector<double> ta, tb, ratios;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    a();
    auto t1 = Clock::now();
    b();
    auto t2 = Clock::now();
    ta.push_back(ms(t0, t1));
    tb.push_back(ms(t1, t2));
    ratios.push_back(tb.back() > 0 ? ta.back() / tb.back() : 0);
  }
  return {median(ta), median(tb), median(ratios)};
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

int Run() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  std::vector<Row> rows;

  for (size_t n : Sizes()) {
    std::printf("xpath sweep: |C| = %zu\n", n);
    const UpdateSystem* sys = SystemFor(n);
    const DagView& dag = sys->dag();
    NaiveXPath naive(&dag);
    for (const Shape& shape : kShapes) {
      Result<Path> p = ParseXPath(shape.query);
      if (!p.ok()) {
        std::fprintf(stderr, "%s: %s\n", shape.query,
                     p.status().ToString().c_str());
        return 1;
      }
      Row row;
      row.c = n;
      row.shape = &shape;

      auto prod = sys->Query(*p);
      if (!prod.ok()) {
        std::fprintf(stderr, "%s: %s\n", shape.query,
                     prod.status().ToString().c_str());
        return 1;
      }
      CachedEval dp = EvaluateTracedWithQualifierDp(
          dag, sys->topo(), sys->reachability(), *p);
      std::set<NodeId> naive_sel;
      auto run_naive = [&] { naive_sel = naive.Eval(*p); };
      row.naive_ms = 1e3 * MedianSeconds(run_naive, /*k=*/1, /*warmup=*/0);
      std::set<NodeId> prod_sel(prod->selected.begin(),
                                prod->selected.end());
      row.selected = prod_sel.size();
      const std::string q = shape.query;
      check(prod->selected == dp.result.selected &&
                prod->side_effect_nodes == dp.result.side_effect_nodes &&
                prod->parent_edges == dp.result.parent_edges &&
                prod_sel == naive_sel,
            q + ": production == DP oracle == naive (" +
                std::to_string(row.selected) + " nodes)");

      PairedMs t = TimePaired(
          [&] {
            auto r = sys->Query(*p);
            if (!r.ok()) std::abort();
          },
          [&] {
            CachedEval r = EvaluateTracedWithQualifierDp(
                dag, sys->topo(), sys->reachability(), *p);
            if (r.result.selected.size() != row.selected) std::abort();
          });
      row.production_ms = t.a_ms;
      row.dp_ms = t.b_ms;
      row.ratio = t.ratio;
      std::printf("  %-36s production %8.3f ms | DP oracle %8.3f ms (%.2fx) | "
                  "naive %9.3f ms\n",
                  shape.query, row.production_ms, row.dp_ms, row.ratio,
                  row.naive_ms);
      if (n == kBarC) {
        check(row.ratio <= kMaxSlowdownVsDp,
              q + ": production within 2x of the DP oracle");
        if (std::string(shape.kind) == "value_filter") {
          check(row.production_ms < row.dp_ms,
                q + ": production beats the DP oracle");
        }
      }
      rows.push_back(row);
    }
  }

  const char* json_path = std::getenv("XVU_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_xpath.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"c\": %zu, \"shape\": \"%s\", \"query\": \"%s\", "
                   "\"selected\": %zu, \"production_ms\": %.4f, "
                   "\"dp_oracle_ms\": %.4f, \"naive_ms\": %.4f, "
                   "\"production_over_dp\": %.3f}%s\n",
                   r.c, r.shape->kind, JsonEscape(r.shape->query).c_str(),
                   r.selected, r.production_ms, r.dp_ms, r.naive_ms, r.ratio,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", json_path, rows.size());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace xvu

int main() { return xvu::bench::Run(); }
