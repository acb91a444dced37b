// SpjQuery's evaluator: a partitioned hash-join pipeline
// (docs/relational-backend.md).
//
// Evaluation runs in three phases:
//  1. Access planning: per FROM occurrence, pick the cheapest way to
//     enumerate its locally filtered rows — a per-column secondary index
//     probe (Table::EqSlots) when a constant/parameter equality pins a
//     column, a full scan otherwise — and estimate its cardinality.
//  2. A greedy join-order pass: start from the most selective occurrence
//     (the pinned one for delta joins) and repeatedly add the cheapest
//     occurrence reachable over an equi-link; unlinked occurrences are
//     deferred to the end (cross-product fallback).
//  3. Per-step execution: an equi-linked step runs either an index-probe
//     join (small bound side: per-binding bucket lookups, no build) or a
//     radix-partitioned build/probe (partition both sides by key hash,
//     build a hash table on the smaller side of each partition, probe the
//     larger streaming). Cross-position != conditions are residual
//     filters; a step whose only links are non-equi falls back to
//     cross-product + filter.
//
// The result is sorted into the canonical order — lexicographic in the
// source rows' table-scan slots over the FROM list — which is exactly the
// order a nested-loop evaluation in FROM order enumerates. The reference
// evaluator in tests/oracles/ does that, and tests/spj_join_test.cc
// fuzz-checks the two bit-identical.

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/relational/spj.h"

namespace xvu {

namespace {

/// One locally filtered row of a FROM occurrence. `ord` is the row's
/// table-scan slot: the canonical-order key.
struct Cand {
  const Tuple* row;
  size_t ord;
};

constexpr uint32_t kUnbound = UINT32_MAX;

/// A partial join result: per FROM position, an index into that
/// occurrence's candidate vector.
struct Path {
  std::vector<uint32_t> at;
};

}  // namespace

Result<std::vector<SpjQuery::WitnessedRow>> SpjQuery::EvalWithWitnessPinned(
    const Database& db, const Tuple& params, size_t pinned_pos,
    const Tuple& pinned_row, const SpjExecOptions& opts) const {
  if (opts.stats != nullptr) *opts.stats = SpjExecStats{};
  auto bump = [&](size_t SpjExecStats::*field, size_t n = 1) {
    if (opts.stats != nullptr) opts.stats->*field += n;
  };

  if (params.size() < num_params_) {
    return Status::InvalidArgument("query expects " +
                                   std::to_string(num_params_) +
                                   " params, got " +
                                   std::to_string(params.size()));
  }
  const size_t T = tables_.size();
  std::vector<const Table*> bases;
  bases.reserve(T);
  for (const TableRef& tr : tables_) {
    const Table* t = db.GetTable(tr.table);
    if (t == nullptr) return Status::NotFound("table " + tr.table);
    bases.push_back(t);
  }

  // Condition classification: single-position conditions filter locally;
  // two-position conditions fire at the step where the second endpoint
  // joins (equality drives the join, != is a residual filter).
  std::vector<std::vector<const SpjCondition*>> local(T);
  std::vector<const SpjCondition*> cross;
  for (const SpjCondition& c : conditions_) {
    bool two_pos = (c.kind == SpjCondition::Kind::kColCol ||
                    c.kind == SpjCondition::Kind::kColColNe) &&
                   c.lhs.table_pos != c.rhs.table_pos;
    if (two_pos) {
      cross.push_back(&c);
    } else {
      local[c.lhs.table_pos].push_back(&c);
    }
  }

  auto passes_local = [&](size_t pos, const Tuple& row) {
    for (const SpjCondition* c : local[pos]) {
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

  // Phase 1 — access planning. A constant/parameter equality lets the
  // occurrence enumerate through a column index; the bucket size doubles
  // as an exact selectivity estimate for the join-order pass.
  struct Access {
    bool indexed = false;
    size_t col = 0;
    Value value;
  };
  std::vector<Access> access(T);
  std::vector<size_t> est(T);
  for (size_t pos = 0; pos < T; ++pos) {
    if (pos == pinned_pos) {
      est[pos] = 1;
      continue;
    }
    est[pos] = bases[pos]->size();
    for (const SpjCondition* c : local[pos]) {
      Value v;
      if (c->kind == SpjCondition::Kind::kColConst) {
        v = c->constant;
      } else if (c->kind == SpjCondition::Kind::kColParam) {
        v = params[c->param_idx];
      } else {
        continue;
      }
      bases[pos]->EnsureColumnIndex(c->lhs.col_idx);
      size_t n = bases[pos]->CountEq(c->lhs.col_idx, v);
      bump(&SpjExecStats::index_probes);
      if (!access[pos].indexed || n < est[pos]) {
        access[pos] = Access{true, c->lhs.col_idx, v};
        est[pos] = n;
      }
    }
  }

  // Phase 2 — greedy join order: most selective first, grow along
  // equi-links, defer unlinked occurrences (cross products) to the end.
  std::vector<size_t> order;
  order.reserve(T);
  std::vector<uint8_t> planned(T, 0);
  size_t first = pinned_pos < T ? pinned_pos : 0;
  if (pinned_pos >= T) {
    for (size_t pos = 1; pos < T; ++pos) {
      if (est[pos] < est[first]) first = pos;
    }
  }
  order.push_back(first);
  planned[first] = 1;
  while (order.size() < T) {
    size_t best = SIZE_MAX;
    bool best_linked = false;
    for (size_t pos = 0; pos < T; ++pos) {
      if (planned[pos]) continue;
      bool linked = false;
      for (const SpjCondition* c : cross) {
        if (c->kind != SpjCondition::Kind::kColCol) continue;
        size_t a = c->lhs.table_pos, b = c->rhs.table_pos;
        if ((a == pos && planned[b]) || (b == pos && planned[a])) {
          linked = true;
          break;
        }
      }
      if (best == SIZE_MAX || (linked && !best_linked) ||
          (linked == best_linked && est[pos] < est[best])) {
        best = pos;
        best_linked = linked;
      }
    }
    order.push_back(best);
    planned[best] = 1;
  }

  // Candidate enumeration, lazy per occurrence: index-probe steps fill
  // their candidate vectors from probed buckets instead.
  std::vector<std::vector<Cand>> cands(T);
  std::vector<uint8_t> materialized(T, 0);
  auto materialize = [&](size_t pos) {
    if (materialized[pos]) return;
    materialized[pos] = 1;
    std::vector<Cand>& out = cands[pos];
    if (pos == pinned_pos) {
      if (passes_local(pos, pinned_row)) out.push_back(Cand{&pinned_row, 0});
      return;
    }
    const Table* t = bases[pos];
    if (access[pos].indexed) {
      const std::vector<size_t>* slots =
          t->EqSlots(access[pos].col, access[pos].value);
      bump(&SpjExecStats::index_probes);
      if (slots != nullptr) {
        for (size_t s : *slots) {
          const Tuple& row = t->RowAt(s);
          if (passes_local(pos, row)) out.push_back(Cand{&row, s});
        }
      }
      bump(&SpjExecStats::rows_from_index, out.size());
    } else {
      t->ForEachSlot([&](size_t s, const Tuple& row) {
        if (passes_local(pos, row)) out.push_back(Cand{&row, s});
      });
      bump(&SpjExecStats::rows_scanned, t->size());
    }
  };

  // Phase 3 — step execution.
  std::vector<Path> paths;
  std::vector<uint8_t> joined(T, 0);
  for (size_t step = 0; step < order.size(); ++step) {
    size_t pos = order[step];
    std::vector<const SpjCondition*> equi, ne;
    for (const SpjCondition* c : cross) {
      size_t a = c->lhs.table_pos, b = c->rhs.table_pos;
      if (!((a == pos && joined[b]) || (b == pos && joined[a]))) continue;
      (c->kind == SpjCondition::Kind::kColCol ? equi : ne).push_back(c);
    }
    auto passes_ne = [&](const Path& p) {
      for (const SpjCondition* c : ne) {
        const Tuple& lr =
            *cands[c->lhs.table_pos][p.at[c->lhs.table_pos]].row;
        const Tuple& rr =
            *cands[c->rhs.table_pos][p.at[c->rhs.table_pos]].row;
        if (lr[c->lhs.col_idx] == rr[c->rhs.col_idx]) return false;
      }
      return true;
    };

    if (step == 0) {
      materialize(pos);
      paths.reserve(cands[pos].size());
      for (uint32_t i = 0; i < cands[pos].size(); ++i) {
        Path p;
        p.at.assign(T, kUnbound);
        p.at[pos] = i;
        paths.push_back(std::move(p));
      }
      joined[pos] = 1;
      if (paths.empty()) break;
      continue;
    }

    std::vector<Path> next;
    if (!equi.empty() && pos != pinned_pos &&
        paths.size() * opts.index_probe_ratio <= est[pos]) {
      // Index-probe join: the bound side is much smaller than this
      // occurrence's candidate set, so per-binding bucket lookups beat
      // materializing and hashing the big side.
      bump(&SpjExecStats::index_probe_steps);
      materialized[pos] = 1;  // filled incrementally below
      const SpjCondition* drive = equi[0];
      bool drive_lhs_new = drive->lhs.table_pos == pos;
      size_t probe_col =
          drive_lhs_new ? drive->lhs.col_idx : drive->rhs.col_idx;
      SpjColRef bound_ref = drive_lhs_new ? drive->rhs : drive->lhs;
      const Table* t = bases[pos];
      t->EnsureColumnIndex(probe_col);
      std::unordered_map<size_t, uint32_t> slot_to_cand;
      for (const Path& p : paths) {
        const Value& v =
            (*cands[bound_ref.table_pos][p.at[bound_ref.table_pos]].row)
                [bound_ref.col_idx];
        const std::vector<size_t>* slots = t->EqSlots(probe_col, v);
        bump(&SpjExecStats::index_probes);
        if (slots == nullptr) continue;
        for (size_t s : *slots) {
          const Tuple& row = t->RowAt(s);
          if (!passes_local(pos, row)) continue;
          bool ok = true;
          for (size_t k = 1; k < equi.size() && ok; ++k) {
            const SpjCondition* c = equi[k];
            bool lhs_new = c->lhs.table_pos == pos;
            size_t ncol = lhs_new ? c->lhs.col_idx : c->rhs.col_idx;
            SpjColRef br = lhs_new ? c->rhs : c->lhs;
            ok = row[ncol] ==
                 (*cands[br.table_pos][p.at[br.table_pos]].row)[br.col_idx];
          }
          if (!ok) continue;
          auto ins = slot_to_cand.emplace(
              s, static_cast<uint32_t>(cands[pos].size()));
          if (ins.second) cands[pos].push_back(Cand{&row, s});
          Path np = p;
          np.at[pos] = ins.first->second;
          if (!passes_ne(np)) continue;
          next.push_back(std::move(np));
        }
      }
      bump(&SpjExecStats::rows_from_index, cands[pos].size());
    } else if (!equi.empty()) {
      // Radix-partitioned build/probe: partition both sides by key hash,
      // build on the smaller side of each partition, probe the larger.
      bump(&SpjExecStats::hash_join_steps);
      materialize(pos);
      struct KeyCol {
        SpjColRef bound_ref;
        size_t new_col;
      };
      std::vector<KeyCol> key_cols;
      key_cols.reserve(equi.size());
      for (const SpjCondition* c : equi) {
        bool lhs_new = c->lhs.table_pos == pos;
        key_cols.push_back(KeyCol{lhs_new ? c->rhs : c->lhs,
                                  lhs_new ? c->lhs.col_idx
                                          : c->rhs.col_idx});
      }
      size_t nb = paths.size(), nc = cands[pos].size();
      size_t min_side = std::min(nb, nc);
      size_t P = 1;
      while (P * 2 <= opts.max_partitions &&
             min_side / (P * 2) >= opts.partition_min_rows) {
        P *= 2;
      }
      if (P > 1) bump(&SpjExecStats::partitions, P);
      TupleHash hasher;
      std::vector<Tuple> bkeys(nb), ckeys(nc);
      std::vector<std::vector<uint32_t>> bpart(P), cpart(P);
      for (uint32_t i = 0; i < nb; ++i) {
        Tuple k;
        k.reserve(key_cols.size());
        for (const KeyCol& x : key_cols) {
          k.push_back((*cands[x.bound_ref.table_pos]
                           [paths[i].at[x.bound_ref.table_pos]]
                               .row)[x.bound_ref.col_idx]);
        }
        bpart[hasher(k) & (P - 1)].push_back(i);
        bkeys[i] = std::move(k);
      }
      for (uint32_t j = 0; j < nc; ++j) {
        Tuple k;
        k.reserve(key_cols.size());
        for (const KeyCol& x : key_cols) {
          k.push_back((*cands[pos][j].row)[x.new_col]);
        }
        cpart[hasher(k) & (P - 1)].push_back(j);
        ckeys[j] = std::move(k);
      }
      for (size_t part = 0; part < P; ++part) {
        if (bpart[part].empty() || cpart[part].empty()) continue;
        std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> ht;
        if (bpart[part].size() <= cpart[part].size()) {
          ht.reserve(bpart[part].size());
          for (uint32_t i : bpart[part]) ht[bkeys[i]].push_back(i);
          for (uint32_t j : cpart[part]) {
            auto it = ht.find(ckeys[j]);
            if (it == ht.end()) continue;
            for (uint32_t i : it->second) {
              Path np = paths[i];
              np.at[pos] = j;
              if (!passes_ne(np)) continue;
              next.push_back(std::move(np));
            }
          }
        } else {
          ht.reserve(cpart[part].size());
          for (uint32_t j : cpart[part]) ht[ckeys[j]].push_back(j);
          for (uint32_t i : bpart[part]) {
            auto it = ht.find(bkeys[i]);
            if (it == ht.end()) continue;
            for (uint32_t j : it->second) {
              Path np = paths[i];
              np.at[pos] = j;
              if (!passes_ne(np)) continue;
              next.push_back(std::move(np));
            }
          }
        }
      }
    } else {
      // No equi link to the bound set (only != links, or none at all):
      // nested-loop fallback — cross product with residual filters.
      bump(&SpjExecStats::fallback_steps);
      materialize(pos);
      for (const Path& p : paths) {
        for (uint32_t j = 0; j < cands[pos].size(); ++j) {
          Path np = p;
          np.at[pos] = j;
          if (!passes_ne(np)) continue;
          next.push_back(std::move(np));
        }
      }
    }
    paths = std::move(next);
    joined[pos] = 1;
    if (paths.empty()) break;
  }

  // Canonical order: lexicographic in table-scan slots over the FROM list
  // — exactly a FROM-order nested loop's enumeration order, whatever join
  // order ran.
  std::sort(paths.begin(), paths.end(), [&](const Path& a, const Path& b) {
    for (size_t pos = 0; pos < T; ++pos) {
      size_t oa = cands[pos][a.at[pos]].ord;
      size_t ob = cands[pos][b.at[pos]].ord;
      if (oa != ob) return oa < ob;
    }
    return false;
  });

  std::vector<WitnessedRow> out;
  out.reserve(paths.size());
  for (const Path& p : paths) {
    WitnessedRow wr;
    wr.projected.reserve(outputs_.size());
    for (const SpjOutput& o : outputs_) {
      wr.projected.push_back(
          (*cands[o.ref.table_pos][p.at[o.ref.table_pos]].row)
              [o.ref.col_idx]);
    }
    wr.sources.reserve(T);
    for (size_t pos = 0; pos < T; ++pos) {
      wr.sources.push_back(*cands[pos][p.at[pos]].row);
    }
    out.push_back(std::move(wr));
  }
  return out;
}

}  // namespace xvu
