#ifndef XVU_RELATIONAL_SPJ_H_
#define XVU_RELATIONAL_SPJ_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"
#include "src/relational/database.h"

namespace xvu {

/// Reference to a column of one table occurrence in a query's FROM list.
/// `table_pos` indexes the FROM list (occurrences, so renamings/self-joins
/// are distinct positions); `col_idx` indexes that table's schema.
struct SpjColRef {
  size_t table_pos = 0;
  size_t col_idx = 0;

  bool operator==(const SpjColRef& o) const {
    return table_pos == o.table_pos && col_idx == o.col_idx;
  }
};

/// One predicate of an SPJ selection condition.
struct SpjCondition {
  enum class Kind {
    kColCol,    ///< lhs = rhs (join or intra-table comparison)
    kColConst,  ///< lhs = constant
    kColParam,  ///< lhs = $A.param_idx (ATG semantic-attribute parameter)
    kColColNe,  ///< lhs != rhs — a non-equi condition. Supported by direct
                ///< query evaluation only (it cannot drive a hash join and
                ///< is applied as a residual filter); edge-view rules must
                ///< be equality-only (RegisterEdgeView rejects it).
  };
  Kind kind = Kind::kColCol;
  SpjColRef lhs;
  SpjColRef rhs;
  Value constant;
  size_t param_idx = 0;
};

/// One projected output column.
struct SpjOutput {
  SpjColRef ref;
  std::string name;
};

/// Execution counters of one evaluation (see docs/relational-backend.md).
struct SpjExecStats {
  size_t hash_join_steps = 0;    ///< steps driven by a partitioned build/probe
  size_t index_probe_steps = 0;  ///< steps driven by per-binding index probes
  size_t fallback_steps = 0;     ///< steps with no equi link (cross + filter)
  size_t partitions = 0;         ///< radix partitions built across all steps
  size_t index_probes = 0;       ///< secondary-index bucket lookups
  size_t rows_scanned = 0;       ///< rows read by full scans
  size_t rows_from_index = 0;    ///< candidate rows produced by index probes
};

/// Tuning of the partitioned hash-join evaluator (spj_exec.cc): local
/// equality selections and small-outer joins go through the tables' lazy
/// per-column indexes (Table::EnsureColumnIndex), and a greedy pass
/// orders the joins. The nested-loop reference evaluator in
/// tests/oracles/ is fuzz-checked bit-identical to it, result order
/// included (tests/spj_join_test.cc).
struct SpjExecOptions {
  /// Use per-binding index probes instead of a build/probe pass when
  /// |bound side| * index_probe_ratio <= |candidate side|.
  size_t index_probe_ratio = 8;
  /// Radix-partition a build/probe step when the smaller side exceeds
  /// this many rows; below it one partition suffices.
  size_t partition_min_rows = 4096;
  size_t max_partitions = 64;
  /// Optional counters sink (zeroed by the evaluation when set).
  SpjExecStats* stats = nullptr;
};

/// A select-project-join query over base relations, with optional
/// `$A`-parameters (Section 2.2: rule queries are SPJ queries taking the
/// parent's semantic attribute as constants).
///
/// Build symbolically with SpjQueryBuilder, which resolves "alias.column"
/// names against a Database catalog.
class SpjQuery {
 public:
  struct TableRef {
    std::string table;
    std::string alias;
  };

  const std::vector<TableRef>& tables() const { return tables_; }
  const std::vector<SpjCondition>& conditions() const { return conditions_; }
  const std::vector<SpjOutput>& outputs() const { return outputs_; }
  size_t num_params() const { return num_params_; }

  /// Evaluates the query against `db` binding `$A = params`.
  /// Returns projected tuples (bag semantics collapsed to set semantics,
  /// matching the paper's edge relations which are sets).
  Result<std::vector<Tuple>> Eval(
      const Database& db, const Tuple& params,
      const SpjExecOptions& opts = SpjExecOptions()) const;

  /// A query result row together with the source rows (one per FROM
  /// occurrence) that produced it — the witness used to compute the
  /// deletable source Sr(Q, t) of Section 4.2.
  struct WitnessedRow {
    Tuple projected;
    std::vector<Tuple> sources;  ///< sources[i] is the row of tables()[i].
  };

  /// Like Eval but keeps witnesses and does not deduplicate. Rows come in
  /// a canonical order — lexicographic in the source rows' table-scan
  /// positions over the FROM list — whatever join order the evaluator
  /// picks, so results are bit-identical sequences, not just equal sets.
  Result<std::vector<WitnessedRow>> EvalWithWitness(
      const Database& db, const Tuple& params,
      const SpjExecOptions& opts = SpjExecOptions()) const;

  /// EvalWithWitness with FROM occurrence `pinned_pos` restricted to the
  /// single row `pinned_row` — the delta-join primitive of incremental
  /// publishing: the new rows a base insertion contributes are exactly the
  /// join results that use it. A `pinned_pos` past the FROM list pins
  /// nothing. This is the hash-join evaluator (spj_exec.cc): per-occurrence
  /// candidates via column indexes, greedy join order, radix-partitioned
  /// build/probe or index-probe steps, canonical result order.
  Result<std::vector<WitnessedRow>> EvalWithWitnessPinned(
      const Database& db, const Tuple& params, size_t pinned_pos,
      const Tuple& pinned_row,
      const SpjExecOptions& opts = SpjExecOptions()) const;

  /// Evaluates the query once for ALL parameter bindings simultaneously:
  /// the parameter predicates are dropped from the join and their bound
  /// columns become the grouping key. Returns param-tuple -> rows.
  ///
  /// This is the bulk publishing plan: generating an XML view calls the
  /// same rule once per parent node; grouping turns those |gen_A| probes
  /// into one O(|I|) join (the difference between quadratic and linear
  /// publishing).
  Result<std::unordered_map<Tuple, std::vector<WitnessedRow>, TupleHash>>
  EvalGroupedByParams(const Database& db,
                      const SpjExecOptions& opts = SpjExecOptions()) const;

  /// Grouped evaluation with one occurrence pinned (delta join grouped by
  /// parameter values): the incremental-publishing primitive.
  Result<std::unordered_map<Tuple, std::vector<WitnessedRow>, TupleHash>>
  EvalGroupedByParamsPinned(
      const Database& db, size_t pinned_pos, const Tuple& pinned_row,
      const SpjExecOptions& opts = SpjExecOptions()) const;

  /// Key preservation (Section 4.1): true iff for every FROM occurrence,
  /// every primary-key column of that occurrence appears in the projection.
  bool IsKeyPreserving(const Database& db) const;

  /// Extends the projection with any missing primary-key columns (named
  /// "<alias>__<keycol>") — the paper's remark that every ATG query can be
  /// made key-preserving without changing the expressive power.
  SpjQuery WithKeyPreservation(const Database& db) const;

  /// Positions (into outputs()) of each FROM occurrence's key columns,
  /// in schema order. Only valid for key-preserving queries.
  Result<std::vector<std::vector<size_t>>> KeyOutputPositions(
      const Database& db) const;

  std::string ToString() const;

 private:
  friend class SpjQueryBuilder;

  std::vector<TableRef> tables_;
  std::vector<SpjCondition> conditions_;
  std::vector<SpjOutput> outputs_;
  size_t num_params_ = 0;
};

/// Fluent builder resolving symbolic column names ("alias.column").
class SpjQueryBuilder {
 public:
  /// The catalog is only consulted for schemas; no data is read.
  explicit SpjQueryBuilder(const Database* catalog) : catalog_(catalog) {}

  SpjQueryBuilder& From(const std::string& table, const std::string& alias);
  SpjQueryBuilder& WhereEq(const std::string& lhs, const std::string& rhs);
  /// lhs != rhs. Direct-query evaluation only; rejected in edge-view rules.
  SpjQueryBuilder& WhereNe(const std::string& lhs, const std::string& rhs);
  SpjQueryBuilder& WhereConst(const std::string& lhs, Value v);
  SpjQueryBuilder& WhereParam(const std::string& lhs, size_t param_idx);
  SpjQueryBuilder& Select(const std::string& col, const std::string& as);

  /// Validates and returns the query. `num_params` is inferred as
  /// 1 + max(param_idx), or 0 when no parameter predicates exist.
  Result<SpjQuery> Build();

 private:
  Result<SpjColRef> Resolve(const std::string& qualified);

  const Database* catalog_;
  SpjQuery q_;
  Status error_;
};

}  // namespace xvu

#endif  // XVU_RELATIONAL_SPJ_H_
