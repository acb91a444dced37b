// SPJ evaluator sweep: the partitioned hash-join pipeline vs the
// nested-loop reference evaluator (tests/oracles), over base relations
// stored to and mmap-loaded from the XVUR on-disk format
// (docs/relational-backend.md).
//
// Per size the bench stores a two-table database to disk, loads it back
// (verifying the roundtrip), and times the same select+join query under
// both evaluators. Self-verifying: their WitnessedRow sequences must be
// identical (order included), and at sizes >= 100k rows the hash join
// must win by at least XVU_BENCH_SPJ_MIN_SPEEDUP (default 10; set 0 under
// ctest, where shared runners make timing unreliable).
//
// Emits BENCH_spj.json (override with XVU_BENCH_JSON), one row per size.
//
// Knobs: XVU_BENCH_SPJ_MAX_ROWS (default 100000; set 1000000 for the full
// sweep), XVU_BENCH_SPJ_MIN_SPEEDUP.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/relational/spj.h"
#include "src/relational/storage.h"
#include "tests/oracles/spj_nested_loop.h"

namespace xvu {
namespace bench {
namespace {

struct Row {
  size_t rows = 0;
  double store_s = 0;
  double load_s = 0;
  double nested_s = 0;
  double hash_s = 0;
  double speedup = 0;
  size_t result_rows = 0;
  size_t index_probes = 0;
  size_t rows_scanned = 0;
};

Database MakeDb(size_t rows) {
  Database db;
  Database* p = &db;
  auto must = [](const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      std::abort();
    }
  };
  must(p->CreateTable(Schema("R",
                             {{"a", ValueType::kInt},
                              {"b", ValueType::kInt},
                              {"w", ValueType::kString}},
                             {"a"})));
  must(p->CreateTable(Schema("S",
                             {{"c", ValueType::kInt},
                              {"d", ValueType::kInt},
                              {"e", ValueType::kString}},
                             {"c"})));
  Rng rng(11);
  // Join-key domain rows/4: ~4 S matches per R key, so the join output
  // grows linearly with the base size instead of quadratically.
  int64_t domain = static_cast<int64_t>(rows / 4 + 1);
  Table* r = db.GetTable("R");
  Table* s = db.GetTable("S");
  for (size_t i = 0; i < rows; ++i) {
    must(r->Insert({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(rng.Range(0, domain - 1)),
                    Value::Str("r" + std::to_string(i % 17))}));
    must(s->Insert({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(rng.Range(0, domain - 1)),
                    Value::Str("e" + std::to_string(i % 13))}));
  }
  return db;
}

int Run() {
  double min_speedup = 10.0;
  if (const char* env = std::getenv("XVU_BENCH_SPJ_MIN_SPEEDUP")) {
    min_speedup = std::atof(env);
  }
  size_t max_rows = 100000;
  if (const char* env = std::getenv("XVU_BENCH_SPJ_MAX_ROWS")) {
    max_rows = static_cast<size_t>(std::atoll(env));
  }
  std::vector<size_t> sizes;
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{100000},
                   size_t{1000000}}) {
    if (n <= max_rows) sizes.push_back(n);
  }

  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  std::vector<Row> out_rows;

  for (size_t n : sizes) {
    std::printf("spj join sweep: %zu rows per base table\n", n);
    Database built = MakeDb(n);
    Row row;
    row.rows = n;

    const std::string dir = "bench_spj_data";
    row.store_s = MedianSeconds(
        [&] {
          Status st = StoreDatabase(built, dir);
          if (!st.ok()) std::abort();
        },
        3, 1);
    Database db;
    row.load_s = MedianSeconds(
        [&] {
          auto loaded = LoadDatabase(dir);
          if (!loaded.ok()) std::abort();
          db = std::move(*loaded);
        },
        3, 1);
    check(db.TotalRows() == built.TotalRows(),
          "on-disk roundtrip preserves " + std::to_string(n * 2) + " rows");

    // Selective probe + join: the shape of a rule's delta evaluation.
    // The nested-loop evaluator scans R and rebuilds the S hash per eval;
    // the hash join answers from the column indexes.
    SpjQueryBuilder b(&db);
    auto q = b.From("R", "r")
                 .From("S", "s")
                 .WhereConst("r.b", Value::Int(42))
                 .WhereEq("r.b", "s.d")
                 .Select("r.a", "ra")
                 .Select("s.c", "sc")
                 .Select("s.e", "se")
                 .Build();
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    SpjExecStats stats;
    SpjExecOptions hash;
    hash.stats = &stats;

    auto ref = EvalNestedLoop(*q, db, {});
    auto fast = q->EvalWithWitness(db, {}, hash);
    if (!ref.ok() || !fast.ok()) {
      std::fprintf(stderr, "eval failed\n");
      return 1;
    }
    row.result_rows = ref->size();
    row.index_probes = stats.index_probes;
    row.rows_scanned = stats.rows_scanned;
    bool identical = ref->size() == fast->size();
    for (size_t i = 0; identical && i < ref->size(); ++i) {
      identical = (*ref)[i].projected == (*fast)[i].projected &&
                  (*ref)[i].sources == (*fast)[i].sources;
    }
    check(identical, "hash join bit-identical to nested loop (" +
                         std::to_string(ref->size()) + " rows)");

    row.nested_s = MedianSeconds(
        [&] {
          auto r2 = EvalNestedLoop(*q, db, {});
          if (!r2.ok() || r2->size() != row.result_rows) std::abort();
        },
        n >= 100000 ? 3 : 5, 1);
    row.hash_s = MedianSeconds(
        [&] {
          auto r2 = q->EvalWithWitness(db, {}, hash);
          if (!r2.ok() || r2->size() != row.result_rows) std::abort();
        },
        5, 1);
    row.speedup = row.hash_s > 0 ? row.nested_s / row.hash_s : 0;
    std::printf(
        "  store %.4fs load %.4fs | nested %.6fs hash %.6fs -> %.1fx "
        "(%zu result rows)\n",
        row.store_s, row.load_s, row.nested_s, row.hash_s, row.speedup,
        row.result_rows);
    if (n >= 100000 && min_speedup > 0) {
      check(row.speedup >= min_speedup,
            "speedup " + std::to_string(row.speedup) + "x >= " +
                std::to_string(min_speedup) + "x at " + std::to_string(n) +
                " rows");
    }
    out_rows.push_back(row);
  }

  const char* json_path = std::getenv("XVU_BENCH_JSON");
  if (json_path == nullptr) json_path = "BENCH_spj.json";
  if (FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < out_rows.size(); ++i) {
      const Row& r = out_rows[i];
      std::fprintf(f,
                   "  {\"rows\": %zu, \"store_s\": %.6f, \"load_s\": %.6f, "
                   "\"nested_loop_s\": %.6f, \"hash_join_s\": %.6f, "
                   "\"speedup\": %.3f, \"result_rows\": %zu, "
                   "\"index_probes\": %zu, \"rows_scanned\": %zu}%s\n",
                   r.rows, r.store_s, r.load_s, r.nested_s, r.hash_s,
                   r.speedup, r.result_rows, r.index_probes, r.rows_scanned,
                   i + 1 < out_rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", json_path, out_rows.size());
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
