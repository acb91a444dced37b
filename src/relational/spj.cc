#include "src/relational/spj.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/str_util.h"

namespace xvu {

Result<std::vector<SpjQuery::WitnessedRow>> SpjQuery::EvalWithWitness(
    const Database& db, const Tuple& params,
    const SpjExecOptions& opts) const {
  return EvalWithWitnessPinned(db, params, static_cast<size_t>(-1), {}, opts);
}

Result<std::unordered_map<Tuple, std::vector<SpjQuery::WitnessedRow>,
                          TupleHash>>
SpjQuery::EvalGroupedByParams(const Database& db,
                              const SpjExecOptions& opts) const {
  return EvalGroupedByParamsPinned(db, static_cast<size_t>(-1), {}, opts);
}

Result<std::unordered_map<Tuple, std::vector<SpjQuery::WitnessedRow>,
                          TupleHash>>
SpjQuery::EvalGroupedByParamsPinned(const Database& db, size_t pinned_pos,
                                    const Tuple& pinned_row,
                                    const SpjExecOptions& opts) const {
  // Build the param-free variant: strip kColParam predicates, remember
  // which column realizes each parameter (extra predicates on the same
  // parameter become post-join equality filters).
  SpjQuery q = *this;
  q.conditions_.clear();
  q.num_params_ = 0;
  std::vector<SpjColRef> param_col(num_params_, SpjColRef{SIZE_MAX, 0});
  for (const SpjCondition& c : conditions_) {
    if (c.kind != SpjCondition::Kind::kColParam) {
      q.conditions_.push_back(c);
      continue;
    }
    if (param_col[c.param_idx].table_pos == SIZE_MAX) {
      param_col[c.param_idx] = c.lhs;
    } else {
      // Two columns bound to the same parameter are transitively equal:
      // keep that as an explicit equi-join, otherwise dropping the
      // parameter predicates can degrade the join into a cross product
      // (e.g. k.k1=$0 ∧ g.grp=$0 implies k.k1 = g.grp).
      SpjCondition join;
      join.kind = SpjCondition::Kind::kColCol;
      join.lhs = param_col[c.param_idx];
      join.rhs = c.lhs;
      q.conditions_.push_back(join);
    }
  }
  for (size_t p = 0; p < num_params_; ++p) {
    if (param_col[p].table_pos == SIZE_MAX) {
      return Status::InvalidArgument(
          "parameter $" + std::to_string(p) +
          " is not bound by any condition; cannot group");
    }
  }
  XVU_ASSIGN_OR_RETURN(
      std::vector<WitnessedRow> rows,
      q.EvalWithWitnessPinned(db, {}, pinned_pos, pinned_row, opts));
  std::unordered_map<Tuple, std::vector<WitnessedRow>, TupleHash> grouped;
  for (WitnessedRow& wr : rows) {
    Tuple key;
    key.reserve(num_params_);
    for (size_t p = 0; p < num_params_; ++p) {
      key.push_back(wr.sources[param_col[p].table_pos][param_col[p].col_idx]);
    }
    grouped[std::move(key)].push_back(std::move(wr));
  }
  return grouped;
}

Result<std::vector<Tuple>> SpjQuery::Eval(const Database& db,
                                          const Tuple& params,
                                          const SpjExecOptions& opts) const {
  XVU_ASSIGN_OR_RETURN(std::vector<WitnessedRow> rows,
                       EvalWithWitness(db, params, opts));
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (WitnessedRow& wr : rows) {
    if (seen.insert(wr.projected).second) {
      out.push_back(std::move(wr.projected));
    }
  }
  return out;
}

bool SpjQuery::IsKeyPreserving(const Database& db) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    const Table* t = db.GetTable(tables_[i].table);
    if (t == nullptr) return false;
    for (size_t key_col : t->schema().key_indices()) {
      bool found = false;
      for (const SpjOutput& o : outputs_) {
        if (o.ref.table_pos == i && o.ref.col_idx == key_col) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
  }
  return true;
}

SpjQuery SpjQuery::WithKeyPreservation(const Database& db) const {
  SpjQuery q = *this;
  for (size_t i = 0; i < tables_.size(); ++i) {
    const Table* t = db.GetTable(tables_[i].table);
    if (t == nullptr) continue;
    for (size_t key_col : t->schema().key_indices()) {
      bool found = false;
      for (const SpjOutput& o : q.outputs_) {
        if (o.ref.table_pos == i && o.ref.col_idx == key_col) {
          found = true;
          break;
        }
      }
      if (!found) {
        q.outputs_.push_back(SpjOutput{
            SpjColRef{i, key_col},
            tables_[i].alias + "__" + t->schema().columns()[key_col].name});
      }
    }
  }
  return q;
}

Result<std::vector<std::vector<size_t>>> SpjQuery::KeyOutputPositions(
    const Database& db) const {
  std::vector<std::vector<size_t>> out(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    const Table* t = db.GetTable(tables_[i].table);
    if (t == nullptr) return Status::NotFound("table " + tables_[i].table);
    for (size_t key_col : t->schema().key_indices()) {
      size_t pos = Schema::npos;
      for (size_t j = 0; j < outputs_.size(); ++j) {
        if (outputs_[j].ref.table_pos == i &&
            outputs_[j].ref.col_idx == key_col) {
          pos = j;
          break;
        }
      }
      if (pos == Schema::npos) {
        return Status::InvalidArgument(
            "query is not key-preserving: key column " +
            t->schema().columns()[key_col].name + " of " + tables_[i].alias +
            " not projected");
      }
      out[i].push_back(pos);
    }
  }
  return out;
}

std::string SpjQuery::ToString() const {
  std::vector<std::string> sel, from, where;
  for (const SpjOutput& o : outputs_) {
    sel.push_back(tables_[o.ref.table_pos].alias + ".c" +
                  std::to_string(o.ref.col_idx) + " as " + o.name);
  }
  for (const TableRef& t : tables_) from.push_back(t.table + " " + t.alias);
  for (const SpjCondition& c : conditions_) {
    std::string lhs = tables_[c.lhs.table_pos].alias + ".c" +
                      std::to_string(c.lhs.col_idx);
    switch (c.kind) {
      case SpjCondition::Kind::kColCol:
        where.push_back(lhs + " = " + tables_[c.rhs.table_pos].alias + ".c" +
                        std::to_string(c.rhs.col_idx));
        break;
      case SpjCondition::Kind::kColColNe:
        where.push_back(lhs + " != " + tables_[c.rhs.table_pos].alias + ".c" +
                        std::to_string(c.rhs.col_idx));
        break;
      case SpjCondition::Kind::kColConst:
        where.push_back(lhs + " = " + c.constant.ToString());
        break;
      case SpjCondition::Kind::kColParam:
        where.push_back(lhs + " = $" + std::to_string(c.param_idx));
        break;
    }
  }
  return "select " + Join(sel, ", ") + " from " + Join(from, ", ") +
         (where.empty() ? "" : " where " + Join(where, " and "));
}

SpjQueryBuilder& SpjQueryBuilder::From(const std::string& table,
                                       const std::string& alias) {
  if (!error_.ok()) return *this;
  if (catalog_->GetTable(table) == nullptr) {
    error_ = Status::NotFound("table " + table);
    return *this;
  }
  for (const auto& t : q_.tables_) {
    if (t.alias == alias) {
      error_ = Status::InvalidArgument("duplicate alias " + alias);
      return *this;
    }
  }
  q_.tables_.push_back(SpjQuery::TableRef{table, alias});
  return *this;
}

Result<SpjColRef> SpjQueryBuilder::Resolve(const std::string& qualified) {
  auto dot = qualified.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument("expected alias.column, got " + qualified);
  }
  std::string alias = qualified.substr(0, dot);
  std::string col = qualified.substr(dot + 1);
  for (size_t i = 0; i < q_.tables_.size(); ++i) {
    if (q_.tables_[i].alias != alias) continue;
    const Table* t = catalog_->GetTable(q_.tables_[i].table);
    size_t ci = t->schema().ColumnIndex(col);
    if (ci == Schema::npos) {
      return Status::NotFound("column " + col + " of " + q_.tables_[i].table);
    }
    return SpjColRef{i, ci};
  }
  return Status::NotFound("alias " + alias);
}

SpjQueryBuilder& SpjQueryBuilder::WhereEq(const std::string& lhs,
                                          const std::string& rhs) {
  if (!error_.ok()) return *this;
  auto l = Resolve(lhs);
  auto r = Resolve(rhs);
  if (!l.ok()) { error_ = l.status(); return *this; }
  if (!r.ok()) { error_ = r.status(); return *this; }
  SpjCondition c;
  c.kind = SpjCondition::Kind::kColCol;
  c.lhs = *l;
  c.rhs = *r;
  q_.conditions_.push_back(c);
  return *this;
}

SpjQueryBuilder& SpjQueryBuilder::WhereNe(const std::string& lhs,
                                          const std::string& rhs) {
  if (!error_.ok()) return *this;
  auto l = Resolve(lhs);
  auto r = Resolve(rhs);
  if (!l.ok()) { error_ = l.status(); return *this; }
  if (!r.ok()) { error_ = r.status(); return *this; }
  SpjCondition c;
  c.kind = SpjCondition::Kind::kColColNe;
  c.lhs = *l;
  c.rhs = *r;
  q_.conditions_.push_back(c);
  return *this;
}

SpjQueryBuilder& SpjQueryBuilder::WhereConst(const std::string& lhs, Value v) {
  if (!error_.ok()) return *this;
  auto l = Resolve(lhs);
  if (!l.ok()) { error_ = l.status(); return *this; }
  SpjCondition c;
  c.kind = SpjCondition::Kind::kColConst;
  c.lhs = *l;
  c.constant = std::move(v);
  q_.conditions_.push_back(c);
  return *this;
}

SpjQueryBuilder& SpjQueryBuilder::WhereParam(const std::string& lhs,
                                             size_t param_idx) {
  if (!error_.ok()) return *this;
  auto l = Resolve(lhs);
  if (!l.ok()) { error_ = l.status(); return *this; }
  SpjCondition c;
  c.kind = SpjCondition::Kind::kColParam;
  c.lhs = *l;
  c.param_idx = param_idx;
  q_.conditions_.push_back(c);
  q_.num_params_ = std::max(q_.num_params_, param_idx + 1);
  return *this;
}

SpjQueryBuilder& SpjQueryBuilder::Select(const std::string& col,
                                         const std::string& as) {
  if (!error_.ok()) return *this;
  auto l = Resolve(col);
  if (!l.ok()) { error_ = l.status(); return *this; }
  q_.outputs_.push_back(SpjOutput{*l, as});
  return *this;
}

Result<SpjQuery> SpjQueryBuilder::Build() {
  if (!error_.ok()) return error_;
  if (q_.tables_.empty()) {
    return Status::InvalidArgument("query has no FROM tables");
  }
  if (q_.outputs_.empty()) {
    return Status::InvalidArgument("query has no projection");
  }
  return q_;
}

}  // namespace xvu
