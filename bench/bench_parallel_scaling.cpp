// Parallel ApplyBatch scaling: (A) worker sweep — the same batch applied
// with 1/2/4/8 worker lanes must produce bit-identical state and, given
// enough cores, shrinking wall-clock; (B) insert-translation scaling —
// batched buddy insertions (the Example 8 SAT gadget, whose new K/G
// templates join each other symbolically) swept over |∆V|. The template
// slot index keeps the symbolic work per ∆V row flat (near-linear group
// translation).
//
// Structural assertions (always on, deterministic): parallel == serial
// state/stats/cache for every worker count; per-row candidate growth
// <= 1.3x per |∆V| doubling. Wall-clock assertions (speedup with
// workers) engage only when the machine has the cores to honor them.
//
// Emits BENCH_parallel.json (set XVU_BENCH_JSON to change the name) with
// the speedup and scaling curves. Knobs: XVU_BENCH_PAR_C (|C| for the
// worker sweep, default 5000), XVU_BENCH_PAR_N (ops per batch, default
// 100), XVU_BENCH_PAR_TRANS_C (|C| for the translation sweep, default
// 2000), XVU_BENCH_PAR_MAX_N (largest |∆V| in the sweep, default 400,
// minimum 8), XVU_BENCH_PAR_REPEATS (median-of-K, default 3),
// XVU_BENCH_PAR_MIN_SPEEDUP (wall-clock bar; 0 disables, the default on
// machines with < 4 cores and in the ctest registration).

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/pipeline.h"

namespace xvu {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t EnvOr(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoll(env) : fallback;
}

/// Parents with a tag-uniform G group and no K row: a buddy insertion
/// under each is translatable (the fresh tag takes the unused Boolean
/// value), and N of them across distinct parents batch without conflicts.
std::vector<int64_t> UniformKLessParents(const Database& db) {
  std::set<int64_t> has_k;
  db.GetTable("K")->ForEach(
      [&](const Tuple& r) { has_k.insert(r[0].as_int()); });
  std::map<int64_t, std::set<bool>> group_tags;
  db.GetTable("G")->ForEach([&](const Tuple& r) {
    group_tags[r[1].as_int()].insert(r[2].as_bool());
  });
  std::vector<int64_t> out;
  for (const auto& [grp, tags] : group_tags) {
    if (tags.size() == 1 && has_k.count(grp) == 0) out.push_back(grp);
  }
  return out;
}

struct BatchOutcome {
  double seconds = 0;       ///< profile.median_seconds, kept for ratios
  LatencyProfile profile;
  UpdateStats stats;
  std::set<std::pair<std::string, std::string>> edges;
  size_t total_rows = 0;
  std::string cache_fingerprint;
};

/// Applies `stmts` as one batch, median wall-clock over `repeats` runs
/// after one discarded warmup run (MedianSeconds). ApplyBatch mutates, so
/// every run — warmup included — gets its own fresh system, prepared up
/// front so only the ApplyBatch call is timed.
Result<BatchOutcome> MeasureBatch(size_t n, uint64_t seed,
                                  const UpdateSystem::Options& options,
                                  const std::vector<std::string>& stmts,
                                  int repeats) {
  if (repeats < 1) repeats = 1;  // matches MedianSeconds' clamp
  BatchOutcome out;
  std::vector<UpdateSystem*> systems;
  std::vector<UpdateBatch> batches(static_cast<size_t>(repeats) + 1);
  for (int r = 0; r < repeats + 1; ++r) {
    UpdateSystem* sys = FreshSystemFor(n, seed, options);
    for (const std::string& s : stmts) {
      XVU_RETURN_NOT_OK(batches[static_cast<size_t>(r)].Add(s, sys->atg()));
    }
    systems.push_back(sys);
  }
  size_t next = 0;
  Status failure;
  out.profile = ProfileSeconds(
      [&] {
        UpdateSystem* sys = systems[next];
        Status st = sys->ApplyBatch(batches[next]);
        if (!st.ok() && failure.ok()) failure = st;
        ++next;
        if (next == 2 && failure.ok()) {  // first measured run
          out.stats = sys->last_stats();
          out.edges = sys->dag().CanonicalEdges();
          out.total_rows = sys->database().TotalRows();
          out.cache_fingerprint = sys->eval_cache().DebugFingerprint();
        }
      },
      repeats, /*warmup=*/1);
  out.seconds = out.profile.median_seconds;
  XVU_RETURN_NOT_OK(failure);
  return out;
}

int Run() {
  size_t n = static_cast<size_t>(EnvOr("XVU_BENCH_PAR_C", 5000));
  size_t num_ops = static_cast<size_t>(EnvOr("XVU_BENCH_PAR_N", 100));
  size_t trans_c = static_cast<size_t>(EnvOr("XVU_BENCH_PAR_TRANS_C", 2000));
  size_t max_dv = static_cast<size_t>(EnvOr("XVU_BENCH_PAR_MAX_N", 400));
  int repeats = static_cast<int>(EnvOr("XVU_BENCH_PAR_REPEATS", 3));
  size_t cores = std::thread::hardware_concurrency();

  int failures = 0;
  auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  // ---- (A) Worker sweep over one mixed multi-path batch.
  std::printf("parallel scaling bench: |C|=%zu, N=%zu, %zu cores\n", n,
              num_ops, cores);
  UpdateSystem* probe = FreshSystemFor(n, 77);
  auto stmts = MakeInsertionWorkload(WorkloadClass::kW1, probe->database(),
                                     num_ops * 3, 4242);
  if (!stmts.ok()) {
    std::fprintf(stderr, "%s\n", stmts.status().ToString().c_str());
    return 1;
  }
  // Sub-inserts only: buddy gadgets across arbitrary parents usually make
  // the joint SAT encoding unsatisfiable (part B picks its parents so
  // they do not).
  std::vector<std::string> batch_stmts;
  for (const std::string& s : *stmts) {
    if (s.find("/sub") == std::string::npos) continue;
    batch_stmts.push_back(s);
    if (batch_stmts.size() == num_ops) break;
  }

  const size_t worker_counts[] = {1, 2, 4, 8};
  std::vector<double> sweep_seconds;
  std::vector<LatencyProfile> sweep_profiles;
  BatchOutcome reference;
  bool identical = true;
  for (size_t w : worker_counts) {
    UpdateSystem::Options options;
    options.worker_threads = w;
    auto r = MeasureBatch(n, 77, options, batch_stmts, repeats);
    if (!r.ok()) {
      std::fprintf(stderr, "workers=%zu: %s\n", w,
                   r.status().ToString().c_str());
      return 1;
    }
    if (w == 1) {
      reference = *r;
    } else {
      identical = identical && r->edges == reference.edges &&
                  r->total_rows == reference.total_rows &&
                  r->cache_fingerprint == reference.cache_fingerprint &&
                  r->stats.selected == reference.stats.selected &&
                  r->stats.delta_v == reference.stats.delta_v &&
                  r->stats.delta_r == reference.stats.delta_r &&
                  r->stats.distinct_paths == reference.stats.distinct_paths &&
                  r->stats.xpath_evaluations ==
                      reference.stats.xpath_evaluations &&
                  r->stats.symbolic_tasks == reference.stats.symbolic_tasks &&
                  r->stats.symbolic_candidates ==
                      reference.stats.symbolic_candidates;
    }
    sweep_seconds.push_back(r->seconds);
    sweep_profiles.push_back(r->profile);
    std::printf("  workers=%zu: %8.2f ms  (speedup %.2fx, %zu distinct "
                "paths, %zu eval tasks, %zu symbolic tasks)\n",
                w, r->seconds * 1e3, reference.seconds / r->seconds,
                r->stats.distinct_paths, r->stats.parallel_eval_tasks,
                r->stats.symbolic_tasks);
  }
  check(identical, "every worker count produced bit-identical results");
  // Wall-clock bar: engaged only with the cores to honor it, and
  // disabled under ctest/CI like every other timing assertion
  // (XVU_BENCH_PAR_MIN_SPEEDUP=0 in the CMake registration).
  double par_min = cores >= 4 ? 1.0 : 0.0;
  if (const char* env = std::getenv("XVU_BENCH_PAR_MIN_SPEEDUP")) {
    par_min = std::atof(env);
  }
  if (par_min > 0) {
    check(sweep_seconds[0] / sweep_seconds[2] >= par_min,
          "4 workers beat 1 worker");
  } else {
    std::printf("  note: wall-clock speedup bar disabled (%zu cores)\n",
                cores);
  }

  // ---- (B) Insert-translation scaling: buddy gadget.
  std::printf("insert translation scaling: |C|=%zu, |dV| up to %zu\n",
              trans_c, max_dv);
  UpdateSystem* probe2 = FreshSystemFor(trans_c, 78);
  std::vector<int64_t> parents = UniformKLessParents(probe2->database());
  if (parents.size() < max_dv) {
    std::fprintf(stderr, "only %zu uniform K-less parents for |dV|=%zu\n",
                 parents.size(), max_dv);
    return 1;
  }
  struct ScalePoint {
    size_t dv = 0;
    double indexed_ms = 0;
    size_t indexed_cands = 0;
  };
  std::vector<ScalePoint> curve;
  if (max_dv < 8) {
    std::fprintf(stderr, "XVU_BENCH_PAR_MAX_N must be >= 8 (got %zu)\n",
                 max_dv);
    return 1;
  }
  for (size_t dv = max_dv / 8; dv <= max_dv; dv *= 2) {
    std::vector<std::string> buddy_stmts;
    for (size_t i = 0; i < dv; ++i) {
      buddy_stmts.push_back("insert B(" + std::to_string(900000 + i) +
                            ") into //C[cid=\"" +
                            std::to_string(parents[i]) + "\"]/buddies");
    }
    auto r = MeasureBatch(trans_c, 78, UpdateSystem::Options{}, buddy_stmts,
                          repeats);
    if (!r.ok()) {
      std::fprintf(stderr, "|dV|=%zu: %s\n", dv,
                   r.status().ToString().c_str());
      return 1;
    }
    ScalePoint p;
    p.dv = dv;
    p.indexed_ms = r->stats.translate_seconds * 1e3;
    p.indexed_cands = r->stats.symbolic_candidates;
    curve.push_back(p);
    std::printf("  |dV|=%4zu: %8.2f ms (%7zu cands, %5.1f/row)\n", dv,
                p.indexed_ms, p.indexed_cands,
                static_cast<double>(p.indexed_cands) / dv);
  }
  bool indexed_linear = true;
  for (size_t i = 1; i < curve.size(); ++i) {
    double idx_growth =
        (static_cast<double>(curve[i].indexed_cands) / curve[i].dv) /
        (static_cast<double>(curve[i - 1].indexed_cands) / curve[i - 1].dv);
    std::printf("  |dV| %zu -> %zu: per-row growth %.2fx\n", curve[i - 1].dv,
                curve[i].dv, idx_growth);
    indexed_linear = indexed_linear && idx_growth <= 1.3;
  }
  check(indexed_linear,
        "per-row symbolic work grows <= 1.3x per |dV| doubling");

  // ---- JSON.
  const char* json_name = std::getenv("XVU_BENCH_JSON");
  std::string fname = json_name != nullptr ? json_name
                                           : "BENCH_parallel.json";
  FILE* f = std::fopen(fname.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"worker_sweep\": {\"C\": %zu, \"N\": %zu, "
                    "\"cores\": %zu, \"seconds\": [",
                 n, num_ops, cores);
    for (size_t i = 0; i < sweep_seconds.size(); ++i) {
      std::fprintf(f, "%s{\"workers\": %zu, \"s\": %.6f, %s}", i ? ", " : "",
                   worker_counts[i], sweep_seconds[i],
                   sweep_profiles[i].JsonFields().c_str());
    }
    std::fprintf(f, "]},\n  \"translation_scaling\": {\"C\": %zu, "
                    "\"points\": [",
                 trans_c);
    for (size_t i = 0; i < curve.size(); ++i) {
      std::fprintf(f,
                   "%s{\"dv\": %zu, \"indexed_ms\": %.3f, "
                   "\"indexed_cands\": %zu}",
                   i ? ", " : "", curve[i].dv, curve[i].indexed_ms,
                   curve[i].indexed_cands);
    }
    std::fprintf(f, "]}\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", fname.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace xvu

int main() { return xvu::bench::Run(); }
