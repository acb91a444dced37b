// End-to-end benchmark driver for the XML view-update system.
//
//   xvubench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--rows <|C|>] [--trace-out <file>]
//
// Runs one seeded single-client workload against the public UpdateSystem
// API, checks the result after every epoch, and prints one JSON object as
// the last line of stdout. See README.md in this directory for the
// workloads, the metric definitions and the layer split.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/atg/publisher.h"
#include "src/common/rng.h"
#include "src/core/evaluator.h"
#include "src/core/system.h"
#include "src/core/translate.h"
#include "src/core/update.h"
#include "src/dag/maintenance_engine.h"
#include "src/dag/reachability.h"
#include "src/dag/topo_order.h"
#include "src/dtd/validate.h"
#include "src/obs/metrics.h"
#include "src/viewupdate/delete.h"
#include "src/viewupdate/insert.h"
#include "src/workload/synthetic.h"
#include "src/workload/workloads.h"
#include "src/xpath/parser.h"

namespace xvu {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "xvubench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

// ------------------------------------------------------------ workloads

// One workload: its view size, path class and the shape of one epoch.
// Every epoch replays the same generated steps on a freshly created
// system, so per-epoch counts must repeat exactly.
struct Plan;

struct WorkloadSpec {
  const char* name;
  WorkloadClass cls;
  size_t num_c;
  size_t writes;     // write calls per epoch (statements or batches)
  size_t reads;      // snapshot reads per epoch
  bool interleaved;  // reads follow each write, else all come after them
  void (*build)(Plan* plan, uint64_t seed);  // appends one epoch's steps
};

// A run measures at least this many epochs, so setup_s is a median of at
// least three Creates and the tail percentiles below are fixed per
// workload.
constexpr size_t kMinEpochs = 3;


// The tail is the highest of p90 / p99 / p99.9 that keeps at least 10
// samples beyond it in the smallest sample a run can have, so it never
// changes rung between runs of one workload.
double TailPercentile(size_t per_epoch) {
  const size_t n = kMinEpochs * per_epoch;
  if (n >= 10000) return 99.9;
  if (n >= 1000) return 99;
  return 90;
}

enum class StepKind { kStatement, kBatch, kRead };

struct Step {
  StepKind kind = StepKind::kStatement;
  bool insert = false;              // statement/batch: inserts vs deletes
  std::vector<std::string> stmts;   // statement(s) of a write
  std::vector<XmlUpdate> ops;       // the same, parsed
  UpdateBatch batch;                // kBatch
  std::string read_path;            // kRead
  Path path;                        // kRead, parsed
};

struct Plan {
  const WorkloadSpec* spec = nullptr;
  size_t rows = 0;  // |C|
  Atg atg;
  Database base;
  std::vector<Step> warmup;           // untimed writes that open an epoch
  std::vector<Step> steps;            // one epoch's timed steps, in order
  std::vector<std::string> check_paths;  // compared snapshot vs live
};

uint64_t SubSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + k * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Step StatementStep(const std::string& stmt, const Atg& atg) {
  Step s;
  s.kind = StepKind::kStatement;
  s.stmts.push_back(stmt);
  s.ops.push_back(Unwrap(ParseUpdate(stmt, atg), "parse " + stmt));
  s.insert = s.ops[0].kind == XmlUpdate::Kind::kInsert;
  return s;
}

Step ReadStep(const std::string& xpath) {
  Step s;
  s.kind = StepKind::kRead;
  s.read_path = xpath;
  s.path = Unwrap(ParseXPath(xpath), "parse " + xpath);
  return s;
}

// A value-filtered path no earlier read used, so the snapshot memo misses
// and the reader evaluates it.
std::string FreshReadPath(WorkloadClass cls, int64_t cid) {
  std::string p = "C[cid=\"" + std::to_string(cid) + "\"]/sub/C";
  return cls == WorkloadClass::kW1 ? "//" + p : p;
}

// Deletion statements without repeats: a repeated edge would only add
// no-op "selects no nodes" rejections.
std::vector<std::string> DistinctDeletes(WorkloadClass cls,
                                         const Database& base, size_t n,
                                         uint64_t seed) {
  auto all = Unwrap(MakeDeletionWorkload(cls, base, 4 * n, seed),
                    "deletion workload");
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const std::string& s : all) {
    if (out.size() == n) break;
    if (seen.insert(s).second) out.push_back(s);
  }
  if (out.size() < n) Die("too few distinct deletions at this size");
  return out;
}

void AlternateWrites(Plan* plan, WorkloadClass cls, size_t writes,
                     uint64_t seed,
                     const std::vector<std::string>& reads_after_each) {
  auto ins = Unwrap(MakeInsertionWorkload(cls, plan->base, (writes + 1) / 2,
                                          SubSeed(seed, 1)),
                    "insertion workload");
  auto del = DistinctDeletes(cls, plan->base, writes / 2, SubSeed(seed, 2));
  const size_t per_write = reads_after_each.size() / writes;
  size_t r = 0;
  for (size_t i = 0; i < writes; ++i) {
    const std::string& stmt = i % 2 == 0 ? ins[i / 2] : del[i / 2];
    plan->steps.push_back(StatementStep(stmt, plan->atg));
    for (size_t k = 0; k < per_write; ++k) {
      plan->steps.push_back(ReadStep(reads_after_each[r++]));
    }
  }
}

void AppendFreshReads(Plan* plan, size_t n, uint64_t seed) {
  if (plan->rows < 2 * n) Die("too few rows for distinct reads");
  Rng rng(seed);
  std::set<int64_t> used;
  while (used.size() < n) {
    int64_t cid = 1 + static_cast<int64_t>(rng.Below(plan->rows));
    if (!used.insert(cid).second) continue;
    std::string p = FreshReadPath(plan->spec->cls, cid);
    plan->steps.push_back(ReadStep(p));
    if (plan->check_paths.size() < 8) plan->check_paths.push_back(p);
  }
}

// ops_w1_c10k: the paper's per-op path — single W1 statements from the
// Section-5 generators, a third of the inserts Example-8 buddy inserts.
void BuildOps(Plan* plan, uint64_t seed) {
  AlternateWrites(plan, plan->spec->cls, plan->spec->writes, seed, {});
  AppendFreshReads(plan, plan->spec->reads, SubSeed(seed, 3));
}

// batch_w2_c10k: 32 leaf inserts per ApplyBatch, four under each of 8
// parents taken in rotation from a hot set of 64 filter-passing parents
// (the generator's leaf-insert targets). The hot paths fit PathEvalCache,
// so after the first rotation every path is a hit or a journal patch.
void BuildBatch(Plan* plan, uint64_t seed) {
  auto gen = Unwrap(
      MakeInsertionWorkload(WorkloadClass::kW2, plan->base, 3000,
                            SubSeed(seed, 1)),
      "insertion workload");
  std::vector<std::string> hot;
  std::set<std::string> seen;
  int64_t fresh = 0;
  const std::string kLeaf = "insert C(";
  const std::string kInto = ") into C[cid=\"";
  for (const std::string& s : gen) {
    if (s.compare(0, kLeaf.size(), kLeaf) != 0) continue;  // buddy insert
    size_t comma = s.find(',');
    size_t into = s.find(kInto);
    fresh = std::max<int64_t>(fresh, std::stoll(s.substr(kLeaf.size(),
                                                          comma - kLeaf.size())));
    std::string parent = s.substr(into + kInto.size());
    parent = parent.substr(0, parent.find('"'));
    if (hot.size() < 64 && seen.insert(parent).second) hot.push_back(parent);
  }
  if (hot.size() < 8) Die("too few filter-passing parents for batch");
  // The first rotation evaluates every hot path once. It runs untimed, so
  // the timed batches measure the cached path only.
  const size_t rotation = (hot.size() + 7) / 8;
  for (size_t b = 0; b < rotation + plan->spec->writes; ++b) {
    Step s;
    s.kind = StepKind::kBatch;
    s.insert = true;
    for (size_t j = 0; j < 8; ++j) {
      const std::string& parent = hot[(8 * b + j) % hot.size()];
      for (int k = 0; k < 4; ++k) {
        ++fresh;
        std::string stmt = "insert C(" + std::to_string(fresh) + ", " +
                           std::to_string(fresh % 100) + ") into C[cid=\"" +
                           parent + "\"]/sub";
        Status st = s.batch.Add(stmt, plan->atg);
        if (!st.ok()) Die("batch statement: " + st.ToString());
        s.ops.push_back(Unwrap(ParseUpdate(stmt, plan->atg), "parse"));
        s.stmts.push_back(std::move(stmt));
      }
    }
    (b < rotation ? plan->warmup : plan->steps).push_back(std::move(s));
  }
  AppendFreshReads(plan, plan->spec->reads, SubSeed(seed, 3));
}

// readwrite_w2_c5k: one W2 statement, then four snapshot reads in the
// order structural, fresh, structural, fresh. The first read after a
// commit pays the epoch-state rebuild and is then served by the carried
// memo, so the read sample splits into rebuild (≈1/4), memo hit (≈1/4)
// and fresh evaluation (≈1/2): the median sits inside the fresh mode and
// the tail inside the rebuild mode, away from either boundary.
void BuildReadWrite(Plan* plan, uint64_t seed) {
  static const char* kStructural[] = {"C/buddies/B", "C/sub/C",
                                      "C/sub/C/buddies/B", "C/sub/C/sub/C"};
  const size_t writes = plan->spec->writes;
  if (plan->rows < plan->spec->reads) Die("too few rows for distinct reads");
  Rng rng(SubSeed(seed, 3));
  std::set<int64_t> used;
  std::vector<std::string> reads;
  for (size_t i = 0; i < writes; ++i) {
    for (size_t k = 0; 2 * k < plan->spec->reads / writes; ++k) {
      reads.push_back(kStructural[(2 * i + k) % 4]);
      int64_t cid = 0;
      do {
        cid = 1 + static_cast<int64_t>(rng.Below(plan->rows));
      } while (!used.insert(cid).second);
      reads.push_back(FreshReadPath(WorkloadClass::kW2, cid));
    }
  }
  AlternateWrites(plan, WorkloadClass::kW2, writes, seed, reads);
  for (const char* p : kStructural) plan->check_paths.push_back(p);
  plan->check_paths.push_back(reads.back());
}

const WorkloadSpec kWorkloads[] = {
    // 100 single W1 statements, alternating insert and delete, then 100
    // fresh value-filtered snapshot reads.
    {"ops_w1_c10k", WorkloadClass::kW1, 10000, 100, 100, false, BuildOps},
    // 40 ApplyBatch calls of 32 leaf inserts, then 100 fresh reads. An
    // untimed rotation over the hot parents opens each epoch.
    {"batch_w2_c10k", WorkloadClass::kW2, 10000, 40, 100, false, BuildBatch},
    // 60 single W2 statements, each followed by 4 snapshot reads.
    {"readwrite_w2_c5k", WorkloadClass::kW2, 5000, 60, 240, true,
     BuildReadWrite},
};

Plan BuildPlan(const WorkloadSpec& spec, size_t rows, uint64_t seed) {
  Plan plan;
  plan.spec = &spec;
  plan.rows = rows;
  // The base instance is the generator's default dataset at this size;
  // the seed picks the statements, batches and read paths. A per-seed
  // dataset moved peak RSS by 3-5% between seeds.
  SyntheticSpec syn;
  syn.num_c = rows;
  plan.base = Unwrap(MakeSyntheticDatabase(syn), "synthetic database");
  plan.atg = Unwrap(MakeSyntheticAtg(plan.base), "synthetic ATG");
  spec.build(&plan, seed);
  return plan;
}

// ---------------------------------------------------------------- spans

// Spans recorded by the traced run around calls into each layer. Kept in
// memory and written once at exit as Chrome trace-event JSON (the object
// form obs::ExportChromeTrace emits), loadable in Perfetto.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
    int64_t op;
    int64_t id;
    int64_t parent;
  };

  // Records a finished span and returns its id.
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t op, int64_t parent) {
    int64_t id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back({name, Micros(start), Micros(end) - Micros(start), op,
                      id, parent});
    return id;
  }
  // Reserves an id for a span whose end is not known yet.
  int64_t Open(const std::string& name, Clock::time_point start, int64_t op,
               int64_t parent) {
    int64_t id = Add(name, start, start, op, parent);
    return id;
  }
  void Close(int64_t id, Clock::time_point end) {
    Span& s = spans_[static_cast<size_t>(id - 1)];
    s.dur_us = Micros(end) - s.ts_us;
  }

  bool Write(const std::string& file) const {
    std::ofstream out(file);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"op\":%lld,\"span\":%lld,\"parent\":%lld}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    s.name.substr(0, s.name.find('.')).c_str(), s.ts_us,
                    s.dur_us, static_cast<long long>(s.op),
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.parent));
      out << buf;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------- epochs

// Counts that depend only on the inputs; every epoch must repeat them.
struct Counts {
  size_t committed_ops = 0;
  size_t rejected_ops = 0;
  size_t sat_runs = 0;
  size_t evaluator_runs = 0;
  size_t delta_v_rows = 0;
  size_t delta_r_ops = 0;
  size_t reads = 0;
  size_t read_selected = 0;
  uint64_t rebuilds = 0;

  bool operator==(const Counts& o) const {
    return committed_ops == o.committed_ops &&
           rejected_ops == o.rejected_ops && sat_runs == o.sat_runs &&
           evaluator_runs == o.evaluator_runs &&
           delta_v_rows == o.delta_v_rows && delta_r_ops == o.delta_r_ops &&
           reads == o.reads && read_selected == o.read_selected &&
           rebuilds == o.rebuilds;
  }
  std::string ToString() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "committed=%zu rejected=%zu sat_runs=%zu "
                  "evaluator_runs=%zu delta_v_rows=%zu delta_r_ops=%zu "
                  "reads=%zu read_selected=%zu snapshot_rebuilds=%llu",
                  committed_ops, rejected_ops, sat_runs, evaluator_runs,
                  delta_v_rows, delta_r_ops, reads, read_selected,
                  static_cast<unsigned long long>(rebuilds));
    return buf;
  }
};

// Per-call layer times (ms) and counts of one traced call.
struct LayerSample {
  bool read = false;
  double wall_ms = 0;
  std::map<std::string, double> v;
};

struct EpochResult {
  double setup_s = 0;
  double loop_s = 0;  // wall time of the timed write loop
  size_t timed_committed = 0;  // committed ops inside the timed loop
  std::vector<double> insert_ms, delete_ms, write_ms, read_ms;
  Counts counts;
  std::vector<int> outcomes;  // StatusCode per step
  size_t attempted = 0;
  size_t unexpected = 0;  // calls failing with a code other than a rejection
  std::string gate_error;  // empty when the correctness gate passed
  std::vector<LayerSample> layers;  // traced epochs only
  std::map<std::string, double> setup_layers;  // traced epochs only
  std::map<std::string, double> end_counts;    // traced epochs only
};

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

bool ExpectedOutcome(const Status& st) {
  return st.ok() || st.code() == StatusCode::kRejected ||
         st.code() == StatusCode::kInvalidArgument;
}

Status ApplyWrite(UpdateSystem& sys, const Step& step) {
  return step.kind == StepKind::kBatch ? sys.ApplyBatch(step.batch)
                                       : sys.ApplyStatement(step.stmts[0]);
}

// Folds one write call's outcome into the epoch's counts.
void CountWrite(const Step& step, const Status& st, const UpdateStats& us,
                EpochResult* r) {
  r->attempted += step.ops.size();
  r->outcomes.push_back(static_cast<int>(st.code()));
  if (!ExpectedOutcome(st)) ++r->unexpected;
  (st.ok() ? r->counts.committed_ops : r->counts.rejected_ops) +=
      step.ops.size();
  r->counts.sat_runs += us.used_sat ? 1 : 0;
  r->counts.evaluator_runs += us.xpath_evaluations;
  r->counts.delta_v_rows += us.delta_v;
  r->counts.delta_r_ops += us.delta_r;
}

std::string CheckState(UpdateSystem& sys, const Plan& plan) {
  auto fresh = sys.Republish();
  if (!fresh.ok()) return "republish: " + fresh.status().ToString();
  if (sys.dag().CanonicalEdges() != fresh->CanonicalEdges()) {
    return "maintained view differs from Republish()";
  }
  if (!sys.topo().Check(sys.dag()).ok()) return "L is not a topological order";
  auto topo = TopoOrder::Compute(sys.dag());
  if (!topo.ok()) return "topological sort: " + topo.status().ToString();
  if (!(sys.reachability() == Reachability::Compute(sys.dag(), *topo))) {
    return "M differs from a fresh Reachability::Compute";
  }
  // The last snapshot of the epoch against live queries at the same epoch.
  Snapshot snap = sys.AcquireSnapshot();
  if (snap.epoch() != sys.read_epoch()) return "snapshot epoch is stale";
  for (const std::string& p : plan.check_paths) {
    auto a = snap.Eval(p);
    auto b = sys.Query(p);
    if (!a.ok() || !b.ok()) return "read " + p + " failed";
    std::vector<NodeId> x = a->selected, y = b->selected;
    std::sort(x.begin(), x.end());
    std::sort(y.begin(), y.end());
    if (x != y) return "snapshot read " + p + " differs from live Query";
  }
  return "";
}

// Read-only replays of the layers a write call passes through, timed on
// the live state just before the call. `out` gets per-layer ms and
// counts; spans hang under `parent`.
void ReplayWriteLayers(const UpdateSystem& sys, const Step& step,
                       SpanLog* log, int64_t op, int64_t parent,
                       LayerSample* out) {
  // One span per replayed function; `key` is the metric it adds to.
  auto span = [&](const char* name, const char* key, Clock::time_point a,
                  Clock::time_point b) {
    log->Add(name, a, b, op, parent);
    out->v[key] += Ms(a, b);
  };
  const Atg& atg = sys.atg();
  {
    auto a = Clock::now();
    for (const std::string& stmt : step.stmts) (void)ParseUpdate(stmt, atg);
    span("xpath.ParseUpdate", "xpath.parse_ms", a, Clock::now());
  }
  {
    auto a = Clock::now();
    for (const XmlUpdate& u : step.ops) {
      if (u.kind == XmlUpdate::Kind::kInsert) {
        (void)ValidateInsert(atg.dtd(), u.path, u.elem_type);
      } else {
        (void)ValidateDelete(atg.dtd(), u.path);
      }
    }
    span("dtd.Validate", "dtd.validate_ms", a, Clock::now());
  }
  // One evaluation per distinct path, as the batch pipeline does.
  std::map<std::string, EvalResult> evals;
  {
    XPathEvaluator ev(&sys.dag(), &sys.topo(), &sys.reachability());
    auto a = Clock::now();
    for (const XmlUpdate& u : step.ops) {
      std::string key = NormalFormKey(u.path);
      if (evals.count(key) > 0) continue;
      auto r = ev.Evaluate(u.path);
      evals[key] = r.ok() ? std::move(r).value() : EvalResult{};
    }
    span("core.Evaluate", "core.eval_ms", a, Clock::now());
    double selected = 0;
    for (const XmlUpdate& u : step.ops) {
      selected += static_cast<double>(evals[NormalFormKey(u.path)].selected.size());
    }
    out->v["core.eval_selected"] += selected;
  }
  // ∆X → ∆V, then ∆V → ∆R over the whole call's ∆V.
  if (step.insert) {
    std::vector<ViewRowOp> dv;
    auto a = Clock::now();
    for (const XmlUpdate& u : step.ops) {
      auto rows = XInsertConnectRows(sys.store(), sys.database(), sys.dag(),
                                     evals[NormalFormKey(u.path)].selected,
                                     u.elem_type, u.attr);
      if (rows.ok()) dv.insert(dv.end(), rows->begin(), rows->end());
    }
    auto b = Clock::now();
    span("viewupdate.XInsertConnectRows", "viewupdate.connect_rows_ms", a, b);
    auto tr = TranslateGroupInsertion(sys.store(), sys.database(), dv);
    auto c = Clock::now();
    span("viewupdate.TranslateGroupInsertion",
         "viewupdate.translate_insert_ms", b, c);
    out->v["viewupdate.xdelta_ms"] += Ms(a, b);
    out->v["viewupdate.translate_ms"] += Ms(b, c);
    if (tr.ok()) {
      out->v["viewupdate.symbolic_candidates"] +=
          static_cast<double>(tr->num_candidates);
    }
  } else {
    std::vector<ViewRowOp> dv;
    auto a = Clock::now();
    for (const XmlUpdate& u : step.ops) {
      auto rows = XDeleteRows(sys.store(), sys.dag(),
                              evals[NormalFormKey(u.path)].parent_edges);
      if (rows.ok()) dv.insert(dv.end(), rows->begin(), rows->end());
    }
    auto b = Clock::now();
    span("viewupdate.XDeleteRows", "viewupdate.delete_rows_ms", a, b);
    (void)TranslateGroupDeletion(sys.store(), sys.database(), dv);
    auto c = Clock::now();
    span("viewupdate.TranslateGroupDeletion",
         "viewupdate.translate_delete_ms", b, c);
    out->v["viewupdate.xdelta_ms"] += Ms(a, b);
    out->v["viewupdate.translate_ms"] += Ms(b, c);
  }
}

// Splits one timed write call with the phase times the call itself
// reports in last_stats(). The phase spans are laid out in pipeline order
// from the call's start: their durations are measured, their offsets are
// not.
void AttributeWriteCall(const UpdateSystem& sys, Clock::time_point a,
                        Clock::time_point b, bool ok, SpanLog* log,
                        int64_t op, int64_t call_span, LayerSample* out) {
  const UpdateStats& st = sys.last_stats();
  double wall = Ms(a, b);
  auto phase = [&](const char* name, double seconds,
                   Clock::time_point* at) {
    auto end = *at + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
    log->Add(name, *at, end, op, call_span);
    *at = end;
  };
  Clock::time_point at = a;
  phase("phase.xpath", st.xpath_seconds, &at);
  phase("phase.translate", st.translate_seconds, &at);
  phase("phase.maintain", st.maintain_seconds, &at);
  out->v["core.eval_phase_ms"] += st.xpath_seconds * 1e3;
  out->v["dag.maintain_ms"] += st.maintain_seconds * 1e3;
  if (st.used_sat) out->v["sat.solve_ms"] += st.sat_seconds * 1e3;
  out->v["sat.runs"] += st.used_sat ? 1 : 0;
  out->v["sat.conflicts"] += static_cast<double>(st.sat_conflicts);
  out->v["sat.flips"] += static_cast<double>(st.sat_flips);
  out->v["viewupdate.delta_v_rows"] += static_cast<double>(st.delta_v);
  out->v["viewupdate.delta_r_ops"] += static_cast<double>(st.delta_r);
  out->v["core.xpath_evaluations"] += static_cast<double>(st.xpath_evaluations);
  out->v["core.cache_hits"] += static_cast<double>(st.xpath_cache_hits);
  out->v["core.delta_patches"] += static_cast<double>(st.delta_patches);
  out->v["core.fallback_evals"] += static_cast<double>(st.fallback_evals);
  out->v["core.batch_ops"] += static_cast<double>(st.batch_ops);
  out->v["dag.journal_entries"] +=
      static_cast<double>(st.journal_entries_replayed);
  // A committed call's translation phase, minus the replayed ∆X→∆V→∆R
  // parts, is applying ∆R, publishing the new subtree and connecting it. A
  // rejected call reports no translation phase; its replays stand in.
  double replayed =
      out->v["viewupdate.xdelta_ms"] + out->v["viewupdate.translate_ms"];
  double attributed = (st.xpath_seconds + st.maintain_seconds) * 1e3 +
                      out->v["xpath.parse_ms"] + out->v["dtd.validate_ms"];
  if (ok) {
    out->v["core.apply_ms"] += st.translate_seconds * 1e3 - replayed;
    out->v["core.unattributed_ms"] +=
        wall - attributed - st.translate_seconds * 1e3;
  } else {
    out->v["core.rollback_ms"] += wall - attributed - replayed;
  }
}

struct RunConfig {
  bool traced = false;
  SpanLog* log = nullptr;
  int64_t* next_op = nullptr;
};

EpochResult RunEpoch(const Plan& plan, const RunConfig& cfg) {
  EpochResult r;
  UpdateSystem::Options options;
  if (cfg.traced) {
    // atg / dag layers of set-up, timed on their own copies of the base.
    Database db = plan.base;
    ViewStore store;
    auto a = Clock::now();
    auto dag = Unwrap(Publisher(&plan.atg, &db).PublishAll(&store), "publish");
    auto b = Clock::now();
    MaintenanceEngine engine;
    Status st = engine.Rebuild(dag);
    if (!st.ok()) Die("rebuild: " + st.ToString());
    auto c = Clock::now();
    int64_t op = (*cfg.next_op)++;
    int64_t root = cfg.log->Add("setup.layers", a, c, op, 0);
    cfg.log->Add("atg.PublishAll", a, b, op, root);
    cfg.log->Add("dag.Rebuild", b, c, op, root);
    r.setup_layers["atg.publish_s"] = Seconds(a, b);
    r.setup_layers["dag.rebuild_s"] = Seconds(b, c);
  }
  Database db = plan.base;
  Atg atg = plan.atg;
  auto t0 = Clock::now();
  auto created = UpdateSystem::Create(std::move(atg), std::move(db), options);
  auto t1 = Clock::now();
  if (!created.ok()) Die("Create: " + created.status().ToString());
  std::unique_ptr<UpdateSystem> sys = std::move(created).value();
  r.setup_s = Seconds(t0, t1);
  if (cfg.traced) {
    cfg.log->Add("core.Create", t0, t1, (*cfg.next_op)++, 0);
  }

  for (const Step& step : plan.warmup) {
    Status st = ApplyWrite(*sys, step);
    CountWrite(step, st, sys->last_stats(), &r);
  }
  uint64_t rebuilds0 = Counter("xvu.snapshot.state_rebuilds");
  double loop_s = 0;
  bool in_write_loop = true;
  auto loop_start = Clock::now();
  for (const Step& step : plan.steps) {
    if (step.kind == StepKind::kRead) {
      // ops/batch read after the write loop; readwrite interleaves.
      if (!plan.spec->interleaved && in_write_loop) {
        loop_s += Seconds(loop_start, Clock::now());
        in_write_loop = false;
      }
      ++r.counts.reads;
      ++r.attempted;
      int64_t op = cfg.traced ? (*cfg.next_op)++ : 0;
      uint64_t rb = cfg.traced ? Counter("xvu.snapshot.state_rebuilds") : 0;
      uint64_t hits = cfg.traced ? Counter("xvu.snapshot.eval.memo_hits") : 0;
      auto a = Clock::now();
      Snapshot snap = sys->AcquireSnapshot();
      auto m = Clock::now();
      auto ev = snap.Eval(step.path);
      auto b = Clock::now();
      r.read_ms.push_back(Ms(a, b));
      if (!ev.ok()) {
        ++r.unexpected;
        r.outcomes.push_back(static_cast<int>(ev.status().code()));
        continue;
      }
      r.outcomes.push_back(0);
      r.counts.read_selected += ev->selected.size();
      if (cfg.traced) {
        LayerSample ls;
        ls.read = true;
        ls.wall_ms = Ms(a, b);
        int64_t root = cfg.log->Add("read", a, b, op, 0);
        cfg.log->Add("core.AcquireSnapshot", a, m, op, root);
        cfg.log->Add("core.Snapshot::Eval", m, b, op, root);
        ls.v["core.snapshot_acquire_ms"] = Ms(a, m);
        ls.v["core.snapshot_eval_ms"] = Ms(m, b);
        if (Counter("xvu.snapshot.state_rebuilds") != rb) {
          ls.v["core.snapshot_rebuild_ms"] = Ms(a, m);
        }
        ls.v["core.snapshot_memo_hits"] =
            static_cast<double>(Counter("xvu.snapshot.eval.memo_hits") - hits);
        r.layers.push_back(std::move(ls));
      }
      continue;
    }
    int64_t op = 0, root = 0, call = 0;
    LayerSample ls;
    Clock::time_point op_start;
    if (cfg.traced) {
      op = (*cfg.next_op)++;
      op_start = Clock::now();
      root = cfg.log->Open(step.kind == StepKind::kBatch ? "write.batch"
                                                         : "write.statement",
                           op_start, op, 0);
      ReplayWriteLayers(*sys, step, cfg.log, op, root, &ls);
    }
    auto a = Clock::now();
    Status st = ApplyWrite(*sys, step);
    auto b = Clock::now();
    double ms = Ms(a, b);
    (step.insert ? r.insert_ms : r.delete_ms).push_back(ms);
    r.write_ms.push_back(ms);
    CountWrite(step, st, sys->last_stats(), &r);
    if (st.ok()) r.timed_committed += step.ops.size();
    if (cfg.traced) {
      call = cfg.log->Add(step.kind == StepKind::kBatch ? "core.ApplyBatch"
                                                        : "core.ApplyStatement",
                          a, b, op, root);
      ls.wall_ms = ms;
      AttributeWriteCall(*sys, a, b, st.ok(), cfg.log, op, call, &ls);
      cfg.log->Close(root, b);
      ls.v["op_span_ms"] = Ms(op_start, b);
      r.layers.push_back(std::move(ls));
    }
  }
  if (in_write_loop) loop_s += Seconds(loop_start, Clock::now());
  r.loop_s = loop_s;
  r.counts.rebuilds = Counter("xvu.snapshot.state_rebuilds") - rebuilds0;
  if (cfg.traced) {
    r.end_counts["dag.nodes"] = static_cast<double>(sys->dag().num_nodes());
    r.end_counts["dag.reach_pairs"] =
        static_cast<double>(sys->reachability().size());
    r.end_counts["relational.base_rows"] =
        static_cast<double>(sys->database().TotalRows());
  }
  r.gate_error = CheckState(*sys, plan);
  return r;
}

// ------------------------------------------------------------ statistics

// Nearest-rank percentile of an ascending sample: an observed value, never
// interpolated or bucketed.
size_t RankIndex(size_t n, double pct) {
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  return std::max<size_t>(rank, 1) - 1;
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[RankIndex(v.size(), pct)];
}

size_t Beyond(size_t n, double pct) { return n - (RankIndex(n, pct) + 1); }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  size_t rows = 0;  // 0 = the workload's |C|
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--rows") {
        a.rows = std::stoull(v);
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        Die("unknown flag " + k);
      }
    } catch (const std::exception&) {
      Die("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Per-layer report of the traced epochs. Write-call rows partition the
// call's wall time (their shares add up to 100%); read rows partition the
// read's. Prints the table and returns the per-layer metrics.
std::vector<Metric> LayerReport(const std::vector<EpochResult>& traced,
                                double untraced_write_p50) {
  std::vector<const LayerSample*> writes, reads;
  for (const EpochResult& e : traced) {
    for (const LayerSample& s : e.layers) {
      (s.read ? reads : writes).push_back(&s);
    }
  }
  double write_wall = 0, read_wall = 0;
  std::vector<double> op_wall, call_wall;
  for (const LayerSample* s : writes) {
    write_wall += s->wall_ms;
    call_wall.push_back(s->wall_ms);
    op_wall.push_back(s->v.at("op_span_ms"));
  }
  for (const LayerSample* s : reads) read_wall += s->wall_ms;
  // Median over the calls where the layer ran, and its total.
  auto layer = [](const std::vector<const LayerSample*>& calls,
                  const std::string& key, size_t* n, double* total) {
    std::vector<double> v;
    *total = 0;
    for (const LayerSample* s : calls) {
      auto it = s->v.find(key);
      if (it == s->v.end()) continue;
      v.push_back(it->second);
      *total += it->second;
    }
    *n = v.size();
    return Median(v);
  };
  struct Row {
    const char* key;
    const char* source;
  };
  static const Row kWriteRows[] = {
      {"xpath.parse_ms", "replayed ParseUpdate"},
      {"dtd.validate_ms", "replayed ValidateInsert / ValidateDelete"},
      {"core.eval_phase_ms", "the call's own evaluation phase"},
      {"viewupdate.xdelta_ms", "replayed XInsertConnectRows / XDeleteRows"},
      {"viewupdate.translate_ms",
       "replayed TranslateGroupInsertion / TranslateGroupDeletion"},
      {"core.apply_ms", "translation phase minus the two replays"},
      {"dag.maintain_ms", "the call's maintenance phase"},
      {"core.rollback_ms", "rejected call: wall minus the rows above"},
      {"core.unattributed_ms", "committed call: wall minus the rows above"},
  };
  static const Row kDetailRows[] = {
      {"core.eval_ms",
       "replayed XPathEvaluator::Evaluate on all distinct paths, cache "
       "bypassed"},
      {"viewupdate.connect_rows_ms", "insert calls"},
      {"viewupdate.delete_rows_ms", "delete calls"},
      {"viewupdate.translate_insert_ms", "insert calls"},
      {"viewupdate.translate_delete_ms", "delete calls"},
      {"sat.solve_ms", "SAT time inside viewupdate.translate"},
  };
  static const Row kReadRows[] = {
      {"core.snapshot_acquire_ms", "AcquireSnapshot"},
      {"core.snapshot_eval_ms", "Snapshot::Eval"},
  };
  std::vector<Metric> metrics;
  std::map<std::string, double> median, share;
  auto print_rows = [&](const char* title, const Row* rows, size_t count,
                        const std::vector<const LayerSample*>& calls,
                        double wall) {
    std::printf("\n%-32s %12s %7s %8s  %s\n", title, "median ms", "calls",
                "share", "source");
    for (size_t i = 0; i < count; ++i) {
      size_t n = 0;
      double total = 0;
      double med = layer(calls, rows[i].key, &n, &total);
      median[rows[i].key] = med;
      share[rows[i].key] = wall > 0 ? total / wall : 0;
      std::printf("%-32s %12.4f %7zu %7.2f%%  %s\n", rows[i].key, med, n,
                  100 * share[rows[i].key], rows[i].source);
    }
  };
  print_rows("write-call layer", kWriteRows, std::size(kWriteRows), writes,
             write_wall);
  double covered = 0;
  for (const Row& r : kWriteRows) covered += share[r.key];
  std::printf("%-32s %12s %7s %7.2f%%  (%.1f ms of write wall)\n",
              "sum of write rows", "", "", 100 * covered, write_wall);
  print_rows("write-call detail", kDetailRows, std::size(kDetailRows),
             writes, write_wall);
  print_rows("read layer", kReadRows, std::size(kReadRows), reads, read_wall);
  size_t rebuilds = 0;
  double rebuild_total = 0;
  double rebuild_med =
      layer(reads, "core.snapshot_rebuild_ms", &rebuilds, &rebuild_total);
  std::printf("%-32s %12.4f %7zu %7.2f%%  acquires that rebuilt the state\n",
              "core.snapshot_rebuild_ms", rebuild_med, rebuilds,
              read_wall > 0 ? 100 * rebuild_total / read_wall : 0);
  double call_p50 = Median(call_wall);
  std::printf(
      "\ntracing overhead: write call p50 %.4f ms traced vs %.4f ms "
      "untraced (%+.4f ms); whole traced op incl. replays p50 %.4f ms\n",
      call_p50, untraced_write_p50, call_p50 - untraced_write_p50,
      Median(op_wall));

  // Counts: totals of the first traced epoch (every epoch repeats them).
  const EpochResult& e0 = traced.front();
  auto total = [&](const std::string& key) {
    double t = 0;
    for (const LayerSample& s : e0.layers) {
      auto it = s.v.find(key);
      if (it != s.v.end()) t += it->second;
    }
    return t;
  };
  double ops = total("core.batch_ops");
  double memo_hits = total("core.snapshot_memo_hits");
  double n_reads = 0;
  for (const LayerSample& s : e0.layers) n_reads += s.read ? 1 : 0;
  auto ms = [&](const char* key) { metrics.push_back({key, median[key], "ms"}); };
  auto count = [&](const char* key, double v) {
    metrics.push_back({key, v, "count"});
  };
  auto fraction = [&](const char* key, double v) {
    metrics.push_back({key, v, "fraction"});
  };
  metrics.push_back({"atg.publish_s", e0.setup_layers.at("atg.publish_s"), "s"});
  metrics.push_back({"dag.rebuild_s", e0.setup_layers.at("dag.rebuild_s"), "s"});
  ms("xpath.parse_ms");
  ms("dtd.validate_ms");
  ms("core.eval_ms");
  ms("core.eval_phase_ms");
  ms("viewupdate.xdelta_ms");
  ms("viewupdate.translate_ms");
  ms("core.apply_ms");
  ms("dag.maintain_ms");
  ms("core.unattributed_ms");
  fraction("core.unattributed_share", share["core.unattributed_ms"]);
  fraction("core.rollback_share", share["core.rollback_ms"]);
  fraction("sat.solve_share", share["sat.solve_ms"]);
  ms("core.snapshot_acquire_ms");
  metrics.push_back({"core.snapshot_rebuild_ms", rebuild_med, "ms"});
  ms("core.snapshot_eval_ms");
  fraction("core.snapshot_memo_hit_share", n_reads > 0 ? memo_hits / n_reads : 0);
  count("core.snapshot_rebuilds", static_cast<double>(e0.counts.rebuilds));
  count("core.rejected_ops", static_cast<double>(e0.counts.rejected_ops));
  fraction("core.reject_share",
           ops > 0 ? static_cast<double>(e0.counts.rejected_ops) / ops : 0);
  count("core.xpath_evaluations", total("core.xpath_evaluations"));
  fraction("core.cache_served_share",
           ops > 0 ? (total("core.cache_hits") + total("core.delta_patches")) / ops
                   : 0);
  count("core.delta_patches", total("core.delta_patches"));
  count("core.fallback_evals", total("core.fallback_evals"));
  count("core.eval_selected", total("core.eval_selected"));
  count("viewupdate.symbolic_candidates", total("viewupdate.symbolic_candidates"));
  count("viewupdate.delta_v_rows", total("viewupdate.delta_v_rows"));
  count("viewupdate.delta_r_ops", total("viewupdate.delta_r_ops"));
  count("sat.runs", total("sat.runs"));
  count("sat.conflicts", total("sat.conflicts"));
  count("sat.flips", total("sat.flips"));
  count("dag.journal_entries", total("dag.journal_entries"));
  count("dag.nodes", e0.end_counts.at("dag.nodes"));
  count("dag.reach_pairs", e0.end_counts.at("dag.reach_pairs"));
  count("relational.base_rows", e0.end_counts.at("relational.base_rows"));
  return metrics;
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Die("unknown workload " + args.workload);
  const size_t rows = args.rows > 0 ? args.rows : spec->num_c;

  // Inputs are generated before anything is timed.
  Plan plan = BuildPlan(*spec, rows, args.seed);
  std::fprintf(stderr, "xvubench: %s seed=%llu |C|=%zu steps/epoch=%zu\n",
               spec->name, static_cast<unsigned long long>(args.seed), rows,
               plan.steps.size());

  auto origin = Clock::now();
  SpanLog log(origin);
  int64_t next_op = 1;
  std::vector<EpochResult> plain, traced;
  bool correct = true;
  size_t failed = 0, attempted = 0;
  std::optional<Counts> first_counts;
  std::vector<int> first_outcomes;
  for (size_t epoch = 0;; ++epoch) {
    size_t need = args.trace ? 2 : kMinEpochs;
    if (epoch >= need && Seconds(origin, Clock::now()) >= args.seconds) break;
    RunConfig cfg;
    // The traced run alternates untraced and traced epochs, so the
    // tracing overhead is measured in the same process.
    cfg.traced = args.trace && epoch % 2 == 1;
    cfg.log = &log;
    cfg.next_op = &next_op;
    EpochResult e = RunEpoch(plan, cfg);
    // Hand the epoch's freed heap back to the kernel, so every epoch starts
    // from the same heap state: without this, later epochs reuse pages the
    // earlier ones faulted in, and both the time and the peak RSS of a run
    // depend on how many epochs it fitted.
    malloc_trim(0);
    std::printf("epoch %zu%s: setup %.4f s, loop %.3f s, %s\n", epoch,
                cfg.traced ? " (traced)" : "", e.setup_s, e.loop_s,
                e.counts.ToString().c_str());
    attempted += e.attempted;
    failed += e.unexpected;
    if (!e.gate_error.empty()) {
      std::printf("correctness gate FAILED: %s\n", e.gate_error.c_str());
      correct = false;
    }
    if (!first_counts) {
      first_counts = e.counts;
      first_outcomes = e.outcomes;
    } else if (!(e.counts == *first_counts)) {
      std::printf("counts differ from epoch 0\n");
      correct = false;
    } else {
      for (size_t i = 0; i < e.outcomes.size(); ++i) {
        if (e.outcomes[i] != first_outcomes[i]) ++failed;
      }
    }
    (cfg.traced ? traced : plain).push_back(std::move(e));
  }
  if (failed > 0) correct = false;

  std::vector<double> ins, del, writes, reads, setups, rates;
  for (const EpochResult& e : plain) {
    ins.insert(ins.end(), e.insert_ms.begin(), e.insert_ms.end());
    del.insert(del.end(), e.delete_ms.begin(), e.delete_ms.end());
    writes.insert(writes.end(), e.write_ms.begin(), e.write_ms.end());
    reads.insert(reads.end(), e.read_ms.begin(), e.read_ms.end());
    setups.push_back(e.setup_s);
    rates.push_back(static_cast<double>(e.timed_committed) / e.loop_s);
  }
  std::printf("deterministic counts per epoch: %s\n",
              first_counts->ToString().c_str());

  if (!args.trace) {
    // Tails need at least 10 samples beyond the reported percentile.
    auto tail = [&](const char* what, const std::vector<double>& v,
                    double pct) {
      size_t beyond = Beyond(v.size(), pct);
      std::printf("%s: n=%zu, tail = p%g with %zu samples beyond\n", what,
                  v.size(), pct, beyond);
      if (beyond < 10) {
        std::printf("too few samples beyond the %s tail\n", what);
        correct = false;
      }
      return Percentile(v, pct);
    };
    std::vector<Metric> m;
    double write_tail = tail("write", writes, TailPercentile(spec->writes));
    double read_tail = tail("read", reads, TailPercentile(spec->reads));
    std::printf("setup: n=%zu Creates; insert calls n=%zu; delete calls "
                "n=%zu, p50 %.4f ms\n",
                setups.size(), ins.size(), del.size(), Median(del));
    m.push_back({"setup_s", Median(setups), "s"});
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    m.push_back({"ops_per_s", Median(rates), "1/s"});
    m.push_back({"insert_p50_ms", Median(ins), "ms"});
    m.push_back({"write_tail_ms", write_tail, "ms"});
    m.push_back({"read_p50_ms", Median(reads), "ms"});
    m.push_back({"read_tail_ms", read_tail, "ms"});
    if (!correct) {
      std::printf("run FAILED its correctness gate; metrics withheld\n");
      PrintResult(false, attempted, failed, {});
      return 1;
    }
    PrintResult(true, attempted, failed, m);
    return 0;
  }

  std::vector<Metric> m = LayerReport(traced, Median(writes));
  std::string file = args.trace_out;
  if (file.empty()) {
    file = ".bench_build/traces/" + std::string(spec->name) + "-seed" +
           std::to_string(args.seed) + ".json";
  }
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(file).parent_path(), ec);
  if (!log.Write(file)) Die("cannot write trace " + file);
  std::printf("trace: %s\n", file.c_str());
  PrintResult(correct, attempted, failed, correct ? m : std::vector<Metric>{});
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace xvu

int main(int argc, char** argv) { return xvu::Main(argc, argv); }
