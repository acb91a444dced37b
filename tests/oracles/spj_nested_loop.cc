#include "tests/oracles/spj_nested_loop.h"

#include <algorithm>
#include <unordered_map>

namespace xvu {

namespace {

/// Partial bindings over the first k FROM occurrences.
struct Binding {
  std::vector<const Tuple*> rows;
};

}  // namespace

Result<std::vector<SpjQuery::WitnessedRow>> EvalNestedLoop(
    const SpjQuery& q, const Database& db, const Tuple& params,
    size_t pinned_pos, const Tuple& pinned_row) {
  const std::vector<SpjQuery::TableRef>& tables = q.tables();
  if (params.size() < q.num_params()) {
    return Status::InvalidArgument("query expects " +
                                   std::to_string(q.num_params()) +
                                   " params, got " +
                                   std::to_string(params.size()));
  }
  std::vector<const Table*> bases;
  bases.reserve(tables.size());
  for (const SpjQuery::TableRef& tr : tables) {
    const Table* t = db.GetTable(tr.table);
    if (t == nullptr) return Status::NotFound("table " + tr.table);
    bases.push_back(t);
  }

  // Partition conditions by the highest FROM position they mention.
  std::vector<std::vector<const SpjCondition*>> conds_at(tables.size());
  for (const SpjCondition& c : q.conditions()) {
    size_t pos = c.lhs.table_pos;
    if (c.kind == SpjCondition::Kind::kColCol ||
        c.kind == SpjCondition::Kind::kColColNe) {
      pos = std::max(pos, c.rhs.table_pos);
    }
    conds_at[pos].push_back(&c);
  }

  std::vector<Binding> partial = {Binding{}};
  for (size_t i = 0; i < tables.size() && !partial.empty(); ++i) {
    // Split this position's conditions into:
    //  local: only reference position i (+ consts/params) — filter rows;
    //  link:  equi-join with an earlier position — drive the hash join;
    //  post:  cross-position != — filter each joined binding.
    std::vector<const SpjCondition*> local, link, post;
    for (const SpjCondition* c : conds_at[i]) {
      bool cross = c->lhs.table_pos != c->rhs.table_pos;
      if (c->kind == SpjCondition::Kind::kColCol && cross) {
        link.push_back(c);
      } else if (c->kind == SpjCondition::Kind::kColColNe && cross) {
        post.push_back(c);
      } else {
        local.push_back(c);
      }
    }
    auto row_passes_local = [&](const Tuple& row) {
      for (const SpjCondition* c : local) {
        const Value& l = row[c->lhs.col_idx];
        switch (c->kind) {
          case SpjCondition::Kind::kColCol:
            if (l != row[c->rhs.col_idx]) return false;
            break;
          case SpjCondition::Kind::kColColNe:
            if (l == row[c->rhs.col_idx]) return false;
            break;
          case SpjCondition::Kind::kColConst:
            if (l != c->constant) return false;
            break;
          case SpjCondition::Kind::kColParam:
            if (l != params[c->param_idx]) return false;
            break;
        }
      }
      return true;
    };
    auto binding_passes_post = [&](const Binding& b) {
      for (const SpjCondition* c : post) {
        if ((*b.rows[c->lhs.table_pos])[c->lhs.col_idx] ==
            (*b.rows[c->rhs.table_pos])[c->rhs.col_idx]) {
          return false;
        }
      }
      return true;
    };

    // Candidate enumeration for this occurrence (all rows, or just the
    // pinned one for delta joins).
    auto for_each_candidate = [&](auto&& fn) {
      if (i == pinned_pos) {
        fn(pinned_row);
      } else {
        bases[i]->ForEach(fn);
      }
    };

    std::vector<Binding> next;
    if (link.empty()) {
      // Cross product with the locally filtered rows.
      std::vector<const Tuple*> filtered;
      for_each_candidate([&](const Tuple& row) {
        if (row_passes_local(row)) filtered.push_back(&row);
      });
      next.reserve(partial.size() * filtered.size());
      for (const Binding& b : partial) {
        for (const Tuple* r : filtered) {
          Binding nb = b;
          nb.rows.push_back(r);
          if (!binding_passes_post(nb)) continue;
          next.push_back(std::move(nb));
        }
      }
    } else {
      // Hash the new table's rows on the join columns touching position i.
      // Each link condition has one side at position i and one earlier.
      std::vector<size_t> my_cols, other_pos, other_cols;
      for (const SpjCondition* c : link) {
        if (c->lhs.table_pos == i) {
          my_cols.push_back(c->lhs.col_idx);
          other_pos.push_back(c->rhs.table_pos);
          other_cols.push_back(c->rhs.col_idx);
        } else {
          my_cols.push_back(c->rhs.col_idx);
          other_pos.push_back(c->lhs.table_pos);
          other_cols.push_back(c->lhs.col_idx);
        }
      }
      std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
      for_each_candidate([&](const Tuple& row) {
        if (!row_passes_local(row)) return;
        Tuple key;
        key.reserve(my_cols.size());
        for (size_t c : my_cols) key.push_back(row[c]);
        index[std::move(key)].push_back(&row);
      });
      for (const Binding& b : partial) {
        Tuple key;
        key.reserve(other_cols.size());
        for (size_t k = 0; k < other_cols.size(); ++k) {
          key.push_back((*b.rows[other_pos[k]])[other_cols[k]]);
        }
        auto it = index.find(key);
        if (it == index.end()) continue;
        for (const Tuple* r : it->second) {
          Binding nb = b;
          nb.rows.push_back(r);
          if (!binding_passes_post(nb)) continue;
          next.push_back(std::move(nb));
        }
      }
    }
    partial = std::move(next);
  }

  std::vector<SpjQuery::WitnessedRow> out;
  out.reserve(partial.size());
  for (const Binding& b : partial) {
    SpjQuery::WitnessedRow wr;
    wr.projected.reserve(q.outputs().size());
    for (const SpjOutput& o : q.outputs()) {
      wr.projected.push_back((*b.rows[o.ref.table_pos])[o.ref.col_idx]);
    }
    wr.sources.reserve(b.rows.size());
    for (const Tuple* r : b.rows) wr.sources.push_back(*r);
    out.push_back(std::move(wr));
  }
  return out;
}

}  // namespace xvu
