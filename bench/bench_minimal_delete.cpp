// SAT-subsystem and minimal-delete sweep.
//
// Part A — solver ablation on hard random 3-SAT at the phase-transition
// ratio m/n = 4.26: the old recursive DPLL (the correctness oracle in
// tests/oracles) vs the watched-literal CDCL vs the full portfolio. Self-
// verifying: all solvers must agree on every instance's verdict, sat
// models must satisfy, and at the largest size the old DPLL completed the
// CDCL speedup must be at least XVU_BENCH_SAT_MIN_SPEEDUP (default 5; 0
// under ctest where timing is unreliable). The DPLL column is timed
// instance-by-instance and cut off once its cumulative time passes ~5s
// (the speedup compares the same instance subset) so the sweep stays
// bounded even though single hard instances can take minutes.
//
// Part B — minimal view deletion against a published synthetic database
// of |C| = XVU_BENCH_MD_C (default 100000, the paper's second-largest
// size): ∆V = all sub rows of {2, 8, 32, 128} random parents, timing the
// lazy-greedy cover alone (exact_threshold = 0) and greedy + branch-and-
// bound (threshold 512), recording both cardinalities. Self-verifying:
// exact never exceeds greedy, and every ∆V row loses a deletable source.
//
// Emits BENCH_sat.json (override with XVU_BENCH_JSON): an object with a
// "solver" array and a "minimal_delete" array.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/sat/cdcl.h"
#include "src/sat/portfolio.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/minimal_delete.h"
#include "tests/oracles/dpll.h"

namespace xvu {
namespace bench {
namespace {

MinimalDeleteOptions Threshold(size_t exact_threshold) {
  MinimalDeleteOptions o;
  o.exact_threshold = exact_threshold;
  return o;
}

int failures = 0;
void Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// ------------------------------------------------------------- Part A

struct SolverRow {
  int nv = 0;
  int nc = 0;
  double dpll_s = -1;  // -1: skipped (previous size exceeded the cap)
  double cdcl_s = 0;
  double portfolio_s = 0;
  double speedup = 0;
  uint64_t conflicts = 0;
  uint64_t propagations = 0;
  size_t sat_count = 0;
  size_t instances = 0;
  size_t dpll_instances = 0;  // how many the DPLL column measured
};

Cnf Random3Sat(Rng* rng, int nv) {
  int nc = static_cast<int>(4.26 * nv + 0.5);
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

std::vector<SolverRow> RunSolverSweep(double min_speedup) {
  int max_nv = 60;
  if (const char* env = std::getenv("XVU_BENCH_SAT_MAX_NV")) {
    max_nv = std::atoi(env);
  }
  constexpr int kInstances = 8;
  constexpr double kDpllCap = 5.0;  // stop growing the DPLL column here
  std::vector<SolverRow> rows;
  bool dpll_alive = true;
  double best_speedup = 0;
  for (int nv : {20, 30, 40, 50, 60, 80}) {
    if (nv > max_nv) break;
    std::printf("solver ablation: nv=%d (ratio 4.26)\n", nv);
    Rng gen(9000 + static_cast<uint64_t>(nv));
    std::vector<Cnf> instances;
    for (int i = 0; i < kInstances; ++i) {
      instances.push_back(Random3Sat(&gen, nv));
    }
    SolverRow row;
    row.nv = nv;
    row.nc = static_cast<int>(instances[0].clauses().size());
    row.instances = kInstances;

    // Verdicts from CDCL (the baseline for agreement). Counters flow
    // through the registry: each run is folded in via
    // RecordSatRunMetrics and the row reports the xvu.sat.* delta — the
    // same source of truth the runtime metrics export.
    const uint64_t conflicts0 = RegistryCounter("xvu.sat.conflicts");
    const uint64_t props0 = RegistryCounter("xvu.sat.propagations");
    std::vector<SatResult> verdicts;
    for (const Cnf& cnf : instances) {
      SatStats st;
      SatResult r = SolveCdcl(cnf, {}, &st);
      RecordSatRunMetrics(st, /*winner_lane=*/-1);
      if (r.kind == SatResult::Kind::kSat) {
        ++row.sat_count;
        Check(cnf.IsSatisfiedBy(r.model),
              "cdcl model satisfies nv=" + std::to_string(nv));
      }
      verdicts.push_back(std::move(r));
    }
    row.conflicts = RegistryCounter("xvu.sat.conflicts") - conflicts0;
    row.propagations = RegistryCounter("xvu.sat.propagations") - props0;
    row.cdcl_s = MedianSeconds(
        [&] {
          for (const Cnf& cnf : instances) SolveCdcl(cnf);
        },
        3, 1);
    row.portfolio_s = MedianSeconds(
        [&] {
          for (const Cnf& cnf : instances) SolvePortfolio(cnf);
        },
        3, 1);
    bool portfolio_agrees = true;
    for (size_t i = 0; i < instances.size(); ++i) {
      SatResult p = SolvePortfolio(instances[i]);
      portfolio_agrees = portfolio_agrees && p.kind == verdicts[i].kind;
    }
    Check(portfolio_agrees,
          "portfolio verdicts match cdcl at nv=" + std::to_string(nv));

    if (dpll_alive) {
      // The recursive solver can take minutes on a single hard instance,
      // so it is timed instance-by-instance (single pass, no median) and
      // cut off mid-size once the cumulative time passes the cap; the
      // speedup then compares the same instance subset.
      bool dpll_agrees = true;
      using Clock = std::chrono::steady_clock;
      row.dpll_s = 0;
      for (size_t i = 0; i < instances.size(); ++i) {
        auto t0 = Clock::now();
        SatResult d = SolveDpllRecursive(instances[i]);
        row.dpll_s +=
            std::chrono::duration<double>(Clock::now() - t0).count();
        dpll_agrees = dpll_agrees && d.kind == verdicts[i].kind;
        ++row.dpll_instances;
        if (row.dpll_s > kDpllCap) break;
      }
      Check(dpll_agrees,
            "recursive dpll verdicts match cdcl at nv=" + std::to_string(nv));
      double cdcl_same_subset = MedianSeconds(
          [&] {
            for (size_t i = 0; i < row.dpll_instances; ++i) {
              SolveCdcl(instances[i]);
            }
          },
          3, 1);
      row.speedup =
          cdcl_same_subset > 0 ? row.dpll_s / cdcl_same_subset : 0;
      if (row.speedup > best_speedup) best_speedup = row.speedup;
      if (row.dpll_s > kDpllCap) dpll_alive = false;
    }
    std::printf(
        "  dpll %.6fs (%zu inst) cdcl %.6fs portfolio %.6fs -> %.1fx "
        "(%zu/%zu sat, %llu conflicts)\n",
        row.dpll_s, row.dpll_instances, row.cdcl_s, row.portfolio_s,
        row.speedup, row.sat_count, row.instances,
        static_cast<unsigned long long>(row.conflicts));
    rows.push_back(row);
  }
  if (min_speedup > 0) {
    Check(best_speedup >= min_speedup,
          "cdcl speedup " + std::to_string(best_speedup) + "x >= " +
              std::to_string(min_speedup) + "x over recursive dpll");
  }
  return rows;
}

// ------------------------------------------------------------- Part B

struct DeleteRow {
  size_t num_c = 0;
  size_t parents = 0;
  size_t dv_rows = 0;
  size_t candidates_hint = 0;  // upper bound: sources per row summed
  double greedy_s = 0;
  double exact_s = 0;
  size_t greedy_cardinality = 0;
  size_t exact_cardinality = 0;
};

/// Every ∆V row must lose at least one deletable source in dr.
bool CoversAll(const UpdateSystem& sys, const std::vector<ViewRowOp>& dv,
               const RelationalUpdate& dr) {
  std::set<std::pair<std::string, Tuple>> dr_set;
  for (const TableOp& op : dr.ops) dr_set.emplace(op.table, op.row);
  for (const ViewRowOp& op : dv) {
    const EdgeViewInfo* info = sys.store().GetEdgeView(op.view_name);
    if (info == nullptr) return false;
    bool covered = false;
    for (const SourceRef& s : DeletableSource(*info, op.row)) {
      const Table* t = sys.database().GetTable(s.table);
      const Tuple* full = t != nullptr ? t->FindByKey(s.key) : nullptr;
      if (full != nullptr && dr_set.count({s.table, *full}) > 0) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

std::vector<DeleteRow> RunMinimalDeleteSweep() {
  size_t num_c = 100000;
  if (const char* env = std::getenv("XVU_BENCH_MD_C")) {
    num_c = static_cast<size_t>(std::atoll(env));
  }
  std::printf("minimal-delete sweep: publishing |C|=%zu\n", num_c);
  UpdateSystem* sys = SystemFor(num_c);

  // Bucket the sub edge view's rows by parent id.
  const std::string vn = ViewStore::EdgeViewName("sub", "C");
  const Table* vt = sys->store().db().GetTable(vn);
  if (vt == nullptr) {
    Check(false, "synthetic store has no " + vn + " view");
    return {};
  }
  std::map<Value, std::vector<ViewRowOp>> by_parent;
  vt->ForEach([&](const Tuple& row) {
    by_parent[row[0]].push_back(ViewRowOp{vn, row});
  });
  std::vector<const std::vector<ViewRowOp>*> groups;
  groups.reserve(by_parent.size());
  for (const auto& [pid, rows] : by_parent) groups.push_back(&rows);
  std::printf("  %zu parents with sub children\n", groups.size());

  std::vector<DeleteRow> rows;
  Rng rng(777);
  for (size_t parents : {size_t{2}, size_t{8}, size_t{32}, size_t{128}}) {
    if (parents > groups.size()) break;
    std::set<size_t> picked;
    while (picked.size() < parents) {
      picked.insert(static_cast<size_t>(rng.Below(groups.size())));
    }
    std::vector<ViewRowOp> dv;
    for (size_t g : picked) {
      dv.insert(dv.end(), groups[g]->begin(), groups[g]->end());
    }
    DeleteRow row;
    row.num_c = num_c;
    row.parents = parents;
    row.dv_rows = dv.size();
    for (const ViewRowOp& op : dv) {
      const EdgeViewInfo* info = sys->store().GetEdgeView(op.view_name);
      row.candidates_hint += DeletableSource(*info, op.row).size();
    }

    Result<RelationalUpdate> greedy = Status::Internal("unset");
    row.greedy_s = MedianSeconds(
        [&] {
          greedy = TranslateMinimalDeletion(sys->store(), sys->database(),
                                            dv, Threshold(0));
        },
        3, 1);
    Result<RelationalUpdate> exact = Status::Internal("unset");
    row.exact_s = MedianSeconds(
        [&] {
          exact = TranslateMinimalDeletion(sys->store(), sys->database(),
                                           dv, Threshold(512));
        },
        3, 1);
    Check(greedy.ok() == exact.ok(),
          "greedy and exact agree on feasibility at " +
              std::to_string(parents) + " parents");
    if (!greedy.ok() || !exact.ok()) continue;
    row.greedy_cardinality = greedy->ops.size();
    row.exact_cardinality = exact->ops.size();
    Check(row.exact_cardinality <= row.greedy_cardinality,
          "exact " + std::to_string(row.exact_cardinality) +
              " <= greedy " + std::to_string(row.greedy_cardinality) +
              " deletions at " + std::to_string(parents) + " parents");
    Check(CoversAll(*sys, dv, *greedy),
          "greedy covers all " + std::to_string(dv.size()) + " dV rows");
    Check(CoversAll(*sys, dv, *exact),
          "exact covers all " + std::to_string(dv.size()) + " dV rows");
    std::printf(
        "  %zu parents (%zu dV rows): greedy %.6fs |dR|=%zu, "
        "exact %.6fs |dR|=%zu\n",
        parents, dv.size(), row.greedy_s, row.greedy_cardinality,
        row.exact_s, row.exact_cardinality);
    rows.push_back(row);
  }
  return rows;
}

// --------------------------------------------------------------- main

int Run() {
  double min_speedup = 5.0;
  if (const char* env = std::getenv("XVU_BENCH_SAT_MIN_SPEEDUP")) {
    min_speedup = std::atof(env);
  }
  std::vector<SolverRow> solver = RunSolverSweep(min_speedup);
  std::vector<DeleteRow> md = RunMinimalDeleteSweep();

  const char* json_path = std::getenv("XVU_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_sat.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "{\n  \"solver\": [\n");
    for (size_t i = 0; i < solver.size(); ++i) {
      const SolverRow& r = solver[i];
      std::fprintf(
          f,
          "    {\"nv\": %d, \"nc\": %d, \"dpll_recursive_s\": %.6f, "
          "\"dpll_instances\": %zu, \"cdcl_s\": %.6f, "
          "\"portfolio_s\": %.6f, \"speedup\": %.3f, "
          "\"conflicts\": %llu, \"propagations\": %llu, "
          "\"sat_count\": %zu, \"instances\": %zu}%s\n",
          r.nv, r.nc, r.dpll_s, r.dpll_instances, r.cdcl_s, r.portfolio_s,
          r.speedup, static_cast<unsigned long long>(r.conflicts),
          static_cast<unsigned long long>(r.propagations), r.sat_count,
          r.instances, i + 1 < solver.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"minimal_delete\": [\n");
    for (size_t i = 0; i < md.size(); ++i) {
      const DeleteRow& r = md[i];
      std::fprintf(
          f,
          "    {\"num_c\": %zu, \"parents\": %zu, \"dv_rows\": %zu, "
          "\"source_refs\": %zu, \"greedy_s\": %.6f, \"exact_s\": %.6f, "
          "\"greedy_cardinality\": %zu, \"exact_cardinality\": %zu}%s\n",
          r.num_c, r.parents, r.dv_rows, r.candidates_hint, r.greedy_s,
          r.exact_s, r.greedy_cardinality, r.exact_cardinality,
          i + 1 < md.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu solver rows, %zu delete rows)\n", json_path,
                solver.size(), md.size());
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
