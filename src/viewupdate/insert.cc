#include "src/viewupdate/insert.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/sat/encoder.h"
#include "src/sat/portfolio.h"
#include "src/viewupdate/template_index.h"

namespace xvu {

namespace {

constexpr size_t kNoClass = static_cast<size_t>(-1);

/// A symbolic value: either a concrete Value or an equivalence class of
/// unknowns (Appendix A's variables z).
struct Sym {
  Value value;          ///< meaningful when cls == kNoClass
  size_t cls = kNoClass;

  bool concrete() const { return cls == kNoClass; }
};

/// Union-find over unknown classes, with optional constant binding and the
/// column type (for finite/infinite domain classification).
///
/// All mutation (NewClass/Bind/Union) happens while templates are built
/// (step 1); afterwards the structure is frozen and every accessor is a
/// const read, so the concurrent side-effect passes of step 2 may resolve
/// classes without synchronization. Find therefore walks the parent chain
/// without path compression — chains are short (bounded by the unions of
/// one translation) and a compressing read would be a data race.
class ClassMgr {
 public:
  size_t NewClass(ValueType type) {
    parent_.push_back(parent_.size());
    bound_.push_back(Value::Null());
    type_.push_back(type);
    return parent_.size() - 1;
  }

  size_t Find(size_t c) const {
    while (parent_[c] != c) c = parent_[c];
    return c;
  }

  bool IsBound(size_t c) const { return !bound_[Find(c)].is_null(); }
  const Value& BoundValue(size_t c) const { return bound_[Find(c)]; }
  ValueType TypeOf(size_t c) const { return type_[Find(c)]; }

  Status Bind(size_t c, const Value& v) {
    c = Find(c);
    if (!bound_[c].is_null()) {
      if (bound_[c] != v) {
        return Status::Rejected("conflicting values " +
                                bound_[c].ToString() + " vs " + v.ToString() +
                                " required for the same unknown");
      }
      return Status::OK();
    }
    bound_[c] = v;
    return Status::OK();
  }

  Status Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return Status::OK();
    if (!bound_[a].is_null() && !bound_[b].is_null()) {
      if (bound_[a] != bound_[b]) {
        return Status::Rejected("conflicting values " + bound_[a].ToString() +
                                " vs " + bound_[b].ToString() +
                                " unified by rule conditions");
      }
    }
    // Keep the bound (or lower) representative.
    if (bound_[a].is_null() && !bound_[b].is_null()) std::swap(a, b);
    parent_[b] = a;
    return Status::OK();
  }

  /// Resolves a sym to its current normal form.
  Sym Resolve(Sym s) const {
    if (s.concrete()) return s;
    size_t r = Find(s.cls);
    if (!bound_[r].is_null()) return Sym{bound_[r], kNoClass};
    return Sym{Value::Null(), r};
  }

  size_t size() const { return parent_.size(); }

 private:
  std::vector<size_t> parent_;
  std::vector<Value> bound_;
  std::vector<ValueType> type_;
};

/// An equality atom over symbolic values — an element of the condition φt.
struct Atom {
  Sym lhs;  ///< at least one side is a free class after Resolve
  Sym rhs;
};

/// A tuple template (an element of X_i): the base tuple some ∆V row needs.
struct TupleTemplate {
  std::string table;
  Tuple key;               ///< concrete primary key
  std::vector<Sym> slots;  ///< full arity
  bool is_new = false;     ///< true: U_i (insert); false: B_i (pre-existing)
};

struct TableKeyHash {
  size_t operator()(const std::pair<std::string, Tuple>& p) const {
    return std::hash<std::string>()(p.first) ^ TupleHash()(p.second);
  }
};

/// One row participating in a symbolic join: either a base row (concrete)
/// or a template.
struct SymRow {
  const Tuple* concrete = nullptr;
  const TupleTemplate* tmpl = nullptr;

  Sym At(size_t col) const {
    if (concrete != nullptr) return Sym{(*concrete)[col], kNoClass};
    return tmpl->slots[col];
  }
  bool is_template() const { return tmpl != nullptr; }
};

/// Context shared across the translation of one group insertion.
///
/// Thread-safety contract for step 2 (the symbolic side-effect passes,
/// which may run on a worker pool): everything below is frozen after step
/// 1 and read concurrently, except (a) `candidates_examined` / `aborted`,
/// which are atomics, (b) `gen_index`, whose lazily built per-subset
/// indexes are guarded by `gen_index_mu` (the only lock the passes take),
/// and (c) `negative_conditions`, which is only written by the
/// coordinator when it merges the per-pass outputs in serial order.
/// The base tables' per-column indexes the narrowing probes read are
/// likewise built serially (PrebuildJoinIndexes) before the passes start;
/// probing a built Table index is a const read.
struct Translator {
  const ViewStore& store;
  const Database& base;
  const InsertOptions& options;

  ClassMgr classes;
  std::vector<TupleTemplate> templates;
  std::unordered_map<std::pair<std::string, Tuple>, size_t, TableKeyHash>
      template_index;
  /// templates per base table (indices into `templates`).
  std::unordered_map<std::string, std::vector<size_t>> templates_by_table;

  /// Lazily built gen-row indexes keyed by a subset of attr positions:
  /// (view name, positions) -> attr-values -> gen rows. Which subsets
  /// appear depends on which params resolve concrete per candidate, so
  /// these cannot be prebuilt; builds and lookups take `gen_index_mu`.
  std::map<std::pair<std::string, std::vector<size_t>>,
           std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash>>
      gen_index;
  std::mutex gen_index_mu;

  /// attr -> id maps per element type (reverse gen index); prebuilt for
  /// every edge view's child type, read-only afterwards.
  std::map<std::string, std::unordered_map<Tuple, int64_t, TupleHash>>
      gen_reverse;

  /// Slot index over the new templates (built once after step 1): narrows
  /// a join step's template candidates through its narrowing condition.
  TemplateSlotIndex tmpl_slots;

  /// ∆V lookup: view -> set of (parent_id, projected row) keys.
  std::unordered_map<std::string, std::unordered_set<Tuple, TupleHash>>
      expected;

  /// CNF clauses gathered as vectors of atoms to negate: each entry is one
  /// side-effect condition φt (conjunction) to be negated.
  std::vector<std::vector<Atom>> negative_conditions;

  std::atomic<size_t> candidates_examined{0};
  /// Set on the first rejection so concurrent passes bail out early; never
  /// set on accepted translations, keeping them deterministic.
  std::atomic<bool> aborted{false};

  explicit Translator(const ViewStore& s, const Database& b,
                      const InsertOptions& o)
      : store(s), base(b), options(o) {}
};

/// Looks up the semantic attribute of node `id` of `type` in the gen table.
Result<Tuple> GenAttrOf(const ViewStore& store, const std::string& type,
                        int64_t id) {
  const Table* gt = store.db().GetTable(ViewStore::GenTableName(type));
  if (gt == nullptr) return Status::NotFound("gen table for " + type);
  const Tuple* row = gt->FindByKey({Value::Int(id)});
  if (row == nullptr) {
    return Status::NotFound("node " + std::to_string(id) + " not in gen_" +
                            type);
  }
  return Tuple(row->begin() + 1, row->end());
}

/// Step 1: derive/merge tuple templates for one ∆V row.
Status BuildTemplates(Translator* t, const EdgeViewInfo& info,
                      const Tuple& view_row) {
  int64_t parent_id = view_row[0].as_int();
  XVU_ASSIGN_OR_RETURN(Tuple params,
                       GenAttrOf(t->store, info.parent_type, parent_id));

  const SpjQuery& q = info.rule;
  // Local cells: one fresh class per (occurrence, column).
  std::vector<std::vector<size_t>> cells(q.tables().size());
  for (size_t i = 0; i < q.tables().size(); ++i) {
    const Table* bt = t->base.GetTable(q.tables()[i].table);
    if (bt == nullptr) return Status::NotFound(q.tables()[i].table);
    const Schema& sch = bt->schema();
    cells[i].reserve(sch.arity());
    for (size_t c = 0; c < sch.arity(); ++c) {
      cells[i].push_back(t->classes.NewClass(sch.columns()[c].type));
    }
  }
  // Constant propagation: conditions and projections bind/unify cells.
  for (const SpjCondition& c : q.conditions()) {
    size_t lc = cells[c.lhs.table_pos][c.lhs.col_idx];
    switch (c.kind) {
      case SpjCondition::Kind::kColConst:
        XVU_RETURN_NOT_OK(t->classes.Bind(lc, c.constant));
        break;
      case SpjCondition::Kind::kColParam:
        XVU_RETURN_NOT_OK(t->classes.Bind(lc, params[c.param_idx]));
        break;
      case SpjCondition::Kind::kColCol:
        XVU_RETURN_NOT_OK(
            t->classes.Union(lc, cells[c.rhs.table_pos][c.rhs.col_idx]));
        break;
      case SpjCondition::Kind::kColColNe:
        // Unreachable: RegisterEdgeView rejects non-equality rules (the
        // symbolic machinery's atoms encode equalities only).
        return Status::Internal("!= condition in edge-view rule");
    }
  }
  for (size_t j = 0; j < q.outputs().size(); ++j) {
    const SpjColRef& ref = q.outputs()[j].ref;
    XVU_RETURN_NOT_OK(
        t->classes.Bind(cells[ref.table_pos][ref.col_idx], view_row[2 + j]));
  }

  // Materialize / merge templates.
  for (size_t i = 0; i < q.tables().size(); ++i) {
    const std::string& table = q.tables()[i].table;
    const Table* bt = t->base.GetTable(table);
    const Schema& sch = bt->schema();
    Tuple key;
    key.reserve(sch.key_indices().size());
    for (size_t kc : sch.key_indices()) {
      size_t cls = cells[i][kc];
      if (!t->classes.IsBound(cls)) {
        return Status::Rejected(
            "key column " + sch.columns()[kc].name + " of " + table +
            " is undetermined; the insertion cannot be translated");
      }
      key.push_back(t->classes.BoundValue(cls));
    }
    auto tk = std::make_pair(table, key);
    auto it = t->template_index.find(tk);
    if (it != t->template_index.end()) {
      // Merge: unify this row's cells with the existing template's slots.
      TupleTemplate& existing = t->templates[it->second];
      for (size_t c = 0; c < sch.arity(); ++c) {
        Sym s = existing.slots[c];
        if (s.concrete()) {
          XVU_RETURN_NOT_OK(t->classes.Bind(cells[i][c], s.value));
        } else {
          XVU_RETURN_NOT_OK(t->classes.Union(cells[i][c], s.cls));
        }
      }
      continue;
    }
    TupleTemplate tmpl;
    tmpl.table = table;
    tmpl.key = key;
    tmpl.slots.reserve(sch.arity());
    const Tuple* existing_row = bt->FindByKey(key);
    if (existing_row != nullptr) {
      // Appendix A preprocessing (3): fill from the existing base tuple;
      // any conflict with required values rejects the update.
      for (size_t c = 0; c < sch.arity(); ++c) {
        XVU_RETURN_NOT_OK(t->classes.Bind(cells[i][c], (*existing_row)[c]));
        tmpl.slots.push_back(Sym{(*existing_row)[c], kNoClass});
      }
      tmpl.is_new = false;
    } else {
      for (size_t c = 0; c < sch.arity(); ++c) {
        tmpl.slots.push_back(Sym{Value::Null(), cells[i][c]});
      }
      tmpl.is_new = true;
    }
    size_t idx = t->templates.size();
    t->templates.push_back(std::move(tmpl));
    t->template_index.emplace(std::move(tk), idx);
    t->templates_by_table[table].push_back(idx);
  }
  return Status::OK();
}

/// Key used to compare found rows against ∆V: (parent_id, projected...).
Tuple ExpectedKey(int64_t parent_id, const Tuple& projected) {
  Tuple k;
  k.reserve(1 + projected.size());
  k.push_back(Value::Int(parent_id));
  for (const Value& v : projected) k.push_back(v);
  return k;
}

/// Slots of `bt`'s rows whose column `col` equals `v`, through the table's
/// own secondary index. Read-only: the index must have been prebuilt
/// (PrebuildJoinIndexes covers every column a condition can narrow on);
/// `known` reports whether it was. Buckets enumerate in ascending slot
/// (scan) order — the same order the prior per-translator indexes used, so
/// candidate enumeration and the CNF built from it are unchanged.
const std::vector<size_t>* IndexLookup(const Table* bt, size_t col,
                                       const Value& v, bool* known) {
  if (!bt->HasColumnIndex(col)) {
    *known = false;
    return nullptr;
  }
  *known = true;
  return bt->EqSlots(col, v);
}

/// Whether (type, attr) already has a node id (reverse gen lookup,
/// prebuilt for every child type).
bool GenHasAttr(const Translator& t, const std::string& type,
                const Tuple& attr, int64_t* id_out) {
  auto it = t.gen_reverse.find(type);
  if (it == t.gen_reverse.end()) return false;
  auto vit = it->second.find(attr);
  if (vit == it->second.end()) return false;
  if (id_out != nullptr) *id_out = vit->second;
  return true;
}

/// Builds, before step 2 freezes the translator, every index the
/// concurrent passes will read: base-row hash indexes for each (table,
/// column) a narrowing condition of a participating view can probe, the
/// reverse gen map of each participating view's child type, and the slot
/// index over the new templates (slots resolved through the frozen
/// classes, so a slot whose class was bound during template merging
/// indexes as concrete). `views` is the set that actually contributes
/// side-effect passes, so a translation touching one view does not pay
/// for scanning the whole database.
void PrebuildJoinIndexes(Translator* t,
                         const std::vector<const EdgeViewInfo*>& views) {
  auto ensure_col = [&](const std::string& table, size_t col) {
    const Table* bt = t->base.GetTable(table);
    if (bt != nullptr) bt->EnsureColumnIndex(col);
  };
  for (const EdgeViewInfo* info : views) {
    const SpjQuery& q = info->rule;
    for (const SpjCondition& c : q.conditions()) {
      switch (c.kind) {
        case SpjCondition::Kind::kColConst:
          ensure_col(q.tables()[c.lhs.table_pos].table, c.lhs.col_idx);
          break;
        case SpjCondition::Kind::kColCol:
          ensure_col(q.tables()[c.lhs.table_pos].table, c.lhs.col_idx);
          ensure_col(q.tables()[c.rhs.table_pos].table, c.rhs.col_idx);
          break;
        case SpjCondition::Kind::kColParam:
          // Narrows gen rows through gen_index, and — when another
          // occurrence pins the same param — base rows of this column.
          ensure_col(q.tables()[c.lhs.table_pos].table, c.lhs.col_idx);
          break;
        case SpjCondition::Kind::kColColNe:
          break;  // never narrows; rejected at registration anyway
      }
    }
    if (t->gen_reverse.count(info->child_type) == 0) {
      auto& rev = t->gen_reverse[info->child_type];
      const Table* gt =
          t->store.db().GetTable(ViewStore::GenTableName(info->child_type));
      if (gt != nullptr) {
        gt->ForEach([&](const Tuple& row) {
          rev.emplace(Tuple(row.begin() + 1, row.end()), row[0].as_int());
        });
      }
    }
  }
  for (size_t ti = 0; ti < t->templates.size(); ++ti) {
    const TupleTemplate& tmpl = t->templates[ti];
    if (!tmpl.is_new) continue;
    std::vector<std::optional<Value>> slots;
    slots.reserve(tmpl.slots.size());
    for (const Sym& s0 : tmpl.slots) {
      Sym s = t->classes.Resolve(s0);
      if (s.concrete()) {
        slots.emplace_back(s.value);
      } else {
        slots.emplace_back(std::nullopt);
      }
    }
    t->tmpl_slots.Add(tmpl.table, ti, slots);
  }
}

/// Recursive symbolic join over the rule's FROM occurrences.
///
/// `forced` is the occurrence pinned to a new template (the first
/// occurrence drawing from U); occurrences before it draw from base rows
/// only, those after from base rows or new templates — this enumerates
/// every combination containing at least one U row exactly once.
struct JoinFrame {
  const EdgeViewInfo* info;
  size_t forced;
  /// The order the remaining occurrences (every one but `forced`) are
  /// filled in: visit[depth] is a FROM position, most constrained first
  /// (VisitOrder).
  std::vector<size_t> visit;
  /// fire[depth]: conditions whose endpoints are all filled once
  /// visit[depth] is assigned (the forced occupancy counts as filled from
  /// the start). Conditions entirely within the forced occurrence are not
  /// listed; they fire at seeding time.
  std::vector<std::vector<const SpjCondition*>> fire;
  /// assigned[pos] is meaningful iff is_set[pos]; the forced occurrence is
  /// pre-seeded, so conditions against it narrow the join from the start.
  std::vector<SymRow> assigned;
  std::vector<uint8_t> is_set;
  std::vector<Atom> atoms;
  /// Where this pass's negated side-effect conditions go. Per-pass when
  /// running on the pool, so passes never contend; the coordinator merges
  /// the vectors in serial enumeration order.
  std::vector<std::vector<Atom>>* out_conds = nullptr;
};

Status EmitCandidate(Translator* t, JoinFrame* f);

/// The order JoinRec fills the non-forced occurrences in: greedy
/// most-constrained-first — repeatedly take the occurrence narrowable
/// through a condition against the already-placed set (a constant
/// selection, an equi-link, or a shared parameter), smallest candidate
/// set first; occurrences with no link come last (they cross-product).
/// Any order visits the same combinations, so the set of side-effect
/// conditions is order-independent; only enumeration order (and the
/// clause order of the CNF built from it) depends on it.
std::vector<size_t> VisitOrder(const Translator& t, const SpjQuery& q,
                               size_t forced) {
  const size_t n = q.tables().size();
  std::vector<size_t> order;
  order.reserve(n - 1);
  // Candidate-set size: base rows, plus the new templates this occurrence
  // may draw from (only occurrences after `forced` in FROM order do).
  auto est = [&](size_t occ) {
    const Table* bt = t.base.GetTable(q.tables()[occ].table);
    size_t e = bt != nullptr ? bt->size() : 0;
    if (occ > forced) {
      auto it = t.templates_by_table.find(q.tables()[occ].table);
      if (it != t.templates_by_table.end()) {
        for (size_t ti : it->second) {
          if (t.templates[ti].is_new) ++e;
        }
      }
    }
    return e;
  };
  std::vector<uint8_t> placed(n, 0);
  placed[forced] = 1;
  while (order.size() + 1 < n) {
    size_t best = Schema::npos;
    bool best_linked = false;
    size_t best_est = 0;
    for (size_t occ = 0; occ < n; ++occ) {
      if (placed[occ]) continue;
      bool linked = false;
      for (const SpjCondition& c : q.conditions()) {
        if (c.kind == SpjCondition::Kind::kColConst) {
          linked = c.lhs.table_pos == occ;
        } else if (c.kind == SpjCondition::Kind::kColCol) {
          linked = (c.lhs.table_pos == occ && placed[c.rhs.table_pos]) ||
                   (c.rhs.table_pos == occ && placed[c.lhs.table_pos]);
        } else if (c.kind == SpjCondition::Kind::kColParam &&
                   c.lhs.table_pos == occ) {
          for (const SpjCondition& c2 : q.conditions()) {
            if (c2.kind == SpjCondition::Kind::kColParam &&
                c2.param_idx == c.param_idx && placed[c2.lhs.table_pos]) {
              linked = true;
              break;
            }
          }
        }
        if (linked) break;
      }
      size_t e = est(occ);
      if (best == Schema::npos || (linked && !best_linked) ||
          (linked == best_linked && e < best_est)) {
        best = occ;
        best_linked = linked;
        best_est = e;
      }
    }
    order.push_back(best);
    placed[best] = 1;
  }
  return order;
}

/// Endpoint FROM positions of a condition (rhs only for two-column kinds).
template <typename Fn>
void ForEachEndpoint(const SpjCondition& c, Fn&& fn) {
  fn(c.lhs.table_pos);
  if (c.kind == SpjCondition::Kind::kColCol ||
      c.kind == SpjCondition::Kind::kColColNe) {
    fn(c.rhs.table_pos);
  }
}

/// Fills f->fire from f->visit and returns the seed conditions (all
/// endpoints within the forced occurrence), which the caller applies
/// before recursing.
std::vector<const SpjCondition*> BuildFireLists(const SpjQuery& q,
                                                JoinFrame* f) {
  const size_t n = q.tables().size();
  std::vector<size_t> depth_of(n, 0);
  for (size_t d = 0; d < f->visit.size(); ++d) depth_of[f->visit[d]] = d;
  f->fire.assign(f->visit.size(), {});
  std::vector<const SpjCondition*> seed;
  for (const SpjCondition& c : q.conditions()) {
    size_t at = Schema::npos;  // npos: only the forced occurrence involved
    ForEachEndpoint(c, [&](size_t pos) {
      if (pos == f->forced) return;
      size_t d = depth_of[pos];
      if (at == Schema::npos || d > at) at = d;
    });
    if (at == Schema::npos) {
      seed.push_back(&c);
    } else {
      f->fire[at].push_back(&c);
    }
  }
  return seed;
}

/// Checks/collects one condition over the currently assigned rows.
/// Returns false when the condition is concretely violated.
bool ApplyCondition(const Translator& t, JoinFrame* f,
                    const SpjCondition& c) {
  if (c.kind == SpjCondition::Kind::kColParam) {
    return true;  // handled in EmitCandidate via the gen-parent match
  }
  Sym l = t.classes.Resolve(f->assigned[c.lhs.table_pos].At(c.lhs.col_idx));
  Sym r = c.kind == SpjCondition::Kind::kColConst
              ? Sym{c.constant, kNoClass}
              : t.classes.Resolve(
                    f->assigned[c.rhs.table_pos].At(c.rhs.col_idx));
  if (c.kind == SpjCondition::Kind::kColColNe) {
    // Defensive: RegisterEdgeView rejects != rules, so this never runs.
    // Atoms encode equalities only; just check the concrete case.
    return !(l.concrete() && r.concrete()) || l.value != r.value;
  }
  if (l.concrete() && r.concrete()) return l.value == r.value;
  if (!l.concrete() && !r.concrete() && l.cls == r.cls) return true;
  f->atoms.push_back(Atom{l, r});
  return true;
}

Status JoinRec(Translator* t, JoinFrame* f, size_t depth) {
  const SpjQuery& q = f->info->rule;
  if (depth == f->visit.size()) return EmitCandidate(t, f);
  const size_t occ = f->visit[depth];
  if (t->aborted.load(std::memory_order_relaxed)) {
    return Status::OK();  // another pass already rejected; result unused
  }
  if (t->candidates_examined.fetch_add(1, std::memory_order_relaxed) + 1 >
      t->options.max_symbolic_candidates) {
    return Status::Rejected(
        "insertion side-effect analysis exceeded the work cap");
  }

  // Conditions firing at this occurrence (precomputed per pass).
  const std::vector<const SpjCondition*>& conds = f->fire[depth];

  auto try_row = [&](SymRow row) -> Status {
    size_t atoms_mark = f->atoms.size();
    f->assigned[occ] = row;
    f->is_set[occ] = 1;
    bool viable = true;
    for (const SpjCondition* c : conds) {
      if (!ApplyCondition(*t, f, *c)) {
        viable = false;
        break;
      }
    }
    if (viable) XVU_RETURN_NOT_OK(JoinRec(t, f, depth + 1));
    f->is_set[occ] = 0;
    f->atoms.resize(atoms_mark);
    return Status::OK();
  };

  const std::string& table = q.tables()[occ].table;
  const Table* bt = t->base.GetTable(table);

  // Base rows. Narrow with an index when some condition binds a column of
  // this occurrence to an already-filled concrete value (assigned, forced,
  // or a constant). The chosen (column, value) also narrows the template
  // candidates below.
  auto filled = [&](size_t pos) { return f->is_set[pos] != 0; };
  bool have_narrow = false;
  size_t narrow_col = 0;
  Value narrow_val;
  const std::vector<size_t>* narrowed = nullptr;
  for (const SpjCondition& c : q.conditions()) {
    size_t col = Schema::npos;
    Sym other;
    if (c.kind == SpjCondition::Kind::kColConst && c.lhs.table_pos == occ) {
      col = c.lhs.col_idx;
      other = Sym{c.constant, kNoClass};
    } else if (c.kind == SpjCondition::Kind::kColCol) {
      if (c.lhs.table_pos == occ && filled(c.rhs.table_pos)) {
        col = c.lhs.col_idx;
        other = t->classes.Resolve(
            f->assigned[c.rhs.table_pos].At(c.rhs.col_idx));
      } else if (c.rhs.table_pos == occ && filled(c.lhs.table_pos)) {
        col = c.rhs.col_idx;
        other = t->classes.Resolve(
            f->assigned[c.lhs.table_pos].At(c.lhs.col_idx));
      }
    } else if (c.kind == SpjCondition::Kind::kColParam &&
               c.lhs.table_pos == occ) {
      // Param-mediated equality: a filled occurrence constrains the same
      // parameter, so if its cell is concrete the parent's $A value is
      // pinned and this occurrence's column must carry it too. Exact —
      // EmitCandidate rejects every candidate whose concrete binds for
      // one param disagree, so mismatching rows contribute nothing.
      for (const SpjCondition& c2 : q.conditions()) {
        if (&c2 == &c || c2.kind != SpjCondition::Kind::kColParam ||
            c2.param_idx != c.param_idx || c2.lhs.table_pos == occ ||
            !filled(c2.lhs.table_pos)) {
          continue;
        }
        Sym s = t->classes.Resolve(
            f->assigned[c2.lhs.table_pos].At(c2.lhs.col_idx));
        if (s.concrete()) {
          col = c.lhs.col_idx;
          other = s;
          break;
        }
      }
    }
    if (bt != nullptr && col != Schema::npos && other.concrete()) {
      bool known = false;
      const std::vector<size_t>* slots =
          IndexLookup(bt, col, other.value, &known);
      if (!known) continue;  // defensive: column not prebuilt, skip
      have_narrow = true;
      narrow_col = col;
      narrow_val = other.value;
      narrowed = slots;
      if (narrowed == nullptr || narrowed->size() <= 4) break;
    }
  }
  if (have_narrow) {
    if (narrowed != nullptr) {
      for (size_t slot : *narrowed) {
        XVU_RETURN_NOT_OK(try_row(SymRow{&bt->RowAt(slot), nullptr}));
      }
    }
  } else if (bt != nullptr) {
    Status st = Status::OK();
    bt->ForEach([&](const Tuple& row) {
      if (!st.ok()) return;
      st = try_row(SymRow{&row, nullptr});
    });
    XVU_RETURN_NOT_OK(st);
  }

  // New templates of this table (occurrences after `forced` may also draw
  // from U; before `forced`, base only — that combination is covered when
  // that occurrence is itself the forced one). With a narrowing condition
  // the slot index prunes to the templates whose slot can still equal the
  // narrow value (concrete match or free slot): every other template
  // fails that same condition, so the enumeration stays near-linear in
  // |∆V|. Without one, every new template of the table is a candidate.
  if (occ > f->forced) {
    if (have_narrow) {
      for (size_t ti : t->tmpl_slots.Candidates(table, narrow_col,
                                                narrow_val)) {
        XVU_RETURN_NOT_OK(try_row(SymRow{nullptr, &t->templates[ti]}));
      }
    } else {
      auto it = t->templates_by_table.find(table);
      if (it != t->templates_by_table.end()) {
        for (size_t ti : it->second) {
          if (!t->templates[ti].is_new) continue;
          XVU_RETURN_NOT_OK(try_row(SymRow{nullptr, &t->templates[ti]}));
        }
      }
    }
  }
  f->is_set[occ] = 0;
  return Status::OK();
}

Status EmitCandidate(Translator* t, JoinFrame* f) {
  const EdgeViewInfo& info = *f->info;
  const SpjQuery& q = info.rule;

  // Resolve parameter constraints: concrete params narrow the parent gen
  // rows; symbolic ones add per-parent atoms.
  struct ParamBind {
    size_t param_idx;
    Sym sym;
  };
  std::vector<ParamBind> binds;
  for (const SpjCondition& c : q.conditions()) {
    if (c.kind != SpjCondition::Kind::kColParam) continue;
    Sym s = t->classes.Resolve(
        f->assigned[c.lhs.table_pos].At(c.lhs.col_idx));
    binds.push_back(ParamBind{c.param_idx, s});
  }
  if (t->aborted.load(std::memory_order_relaxed)) return Status::OK();
  // A complete assignment is a unit of symbolic work too, so it counts
  // against the cap like the join steps above.
  if (t->candidates_examined.fetch_add(1, std::memory_order_relaxed) + 1 >
      t->options.max_symbolic_candidates) {
    return Status::Rejected(
        "insertion side-effect analysis exceeded the work cap");
  }

  const Table* gt =
      t->store.db().GetTable(ViewStore::GenTableName(info.parent_type));
  if (gt == nullptr) {
    return Status::NotFound("gen table for " + info.parent_type);
  }

  // Projected row (symbolic).
  std::vector<Sym> projected;
  projected.reserve(q.outputs().size());
  bool proj_concrete = true;
  for (const SpjOutput& o : q.outputs()) {
    Sym s = t->classes.Resolve(f->assigned[o.ref.table_pos].At(o.ref.col_idx));
    proj_concrete = proj_concrete && s.concrete();
    projected.push_back(s);
  }

  // Candidate parents: narrow by the concrete parameter bindings via a
  // lazily built gen index, so the per-candidate cost is independent of
  // |gen_A| (matching the paper's |I|-independent coding complexity).
  std::vector<size_t> concrete_pos;
  Tuple concrete_vals;
  for (const ParamBind& b : binds) {
    if (b.sym.concrete()) {
      concrete_pos.push_back(b.param_idx);
      concrete_vals.push_back(b.sym.value);
    }
  }
  std::sort(concrete_pos.begin(), concrete_pos.end());
  concrete_pos.erase(std::unique(concrete_pos.begin(), concrete_pos.end()),
                     concrete_pos.end());
  // Rebuild values in the deduped position order.
  concrete_vals.clear();
  for (size_t p : concrete_pos) {
    for (const ParamBind& b : binds) {
      if (b.param_idx == p && b.sym.concrete()) {
        concrete_vals.push_back(b.sym.value);
        break;
      }
    }
  }
  // Distinct concrete binds for the same param must agree.
  for (const ParamBind& b : binds) {
    if (!b.sym.concrete()) continue;
    for (size_t i = 0; i < concrete_pos.size(); ++i) {
      if (concrete_pos[i] == b.param_idx &&
          concrete_vals[i] != b.sym.value) {
        return Status::OK();  // contradictory: no parent matches
      }
    }
  }

  const std::vector<const Tuple*>* parents = nullptr;
  std::vector<const Tuple*> all_parents;  // unnarrowed fallback
  static const std::vector<const Tuple*> kNoParents;
  if (!concrete_pos.empty()) {
    auto key = std::make_pair(info.name, concrete_pos);
    // Build-or-lookup under the lock. Holding a pointer to the bucket
    // past the critical section is safe: a bucket is fully built in one
    // go and never mutated again, and neither map rehashing nor sibling
    // inserts move node-based entries.
    std::lock_guard<std::mutex> lock(t->gen_index_mu);
    auto iit = t->gen_index.find(key);
    if (iit == t->gen_index.end()) {
      auto& idx = t->gen_index[key];
      gt->ForEach([&](const Tuple& row) {
        Tuple k;
        k.reserve(concrete_pos.size());
        for (size_t p : concrete_pos) k.push_back(row[1 + p]);
        idx[std::move(k)].push_back(&row);
      });
      iit = t->gen_index.find(key);
    }
    auto vit = iit->second.find(concrete_vals);
    parents = vit != iit->second.end() ? &vit->second : &kNoParents;
  } else {
    gt->ForEach([&](const Tuple& row) { all_parents.push_back(&row); });
    parents = &all_parents;
  }

  Status st = Status::OK();
  for (const Tuple* gp : *parents) {
    const Tuple& gen_row = *gp;
    if (!st.ok()) break;
    if (t->candidates_examined.fetch_add(1, std::memory_order_relaxed) + 1 >
        t->options.max_symbolic_candidates) {
      st = Status::Rejected(
          "insertion side-effect analysis exceeded the work cap");
      break;
    }
    int64_t parent_id = gen_row[0].as_int();
    std::vector<Atom> atoms = f->atoms;
    bool viable = true;
    for (const ParamBind& b : binds) {
      const Value& pv = gen_row[1 + b.param_idx];
      if (b.sym.concrete()) {
        if (b.sym.value != pv) {
          viable = false;
          break;
        }
      } else {
        atoms.push_back(Atom{b.sym, Sym{pv, kNoClass}});
      }
    }
    if (!viable) continue;

    if (proj_concrete && atoms.empty()) {
      // A certain new view row: expected, already present, or a definite
      // side effect (Appendix A case (a)).
      Tuple proj;
      proj.reserve(projected.size());
      for (const Sym& s : projected) proj.push_back(s.value);
      Tuple ek = ExpectedKey(parent_id, proj);
      auto eit = t->expected.find(info.name);
      if (eit != t->expected.end() && eit->second.count(ek) > 0) continue;
      // In the current view?
      Tuple attr(proj.begin(),
                 proj.begin() + static_cast<std::ptrdiff_t>(info.attr_arity));
      int64_t child_id = 0;
      bool in_view = false;
      if (GenHasAttr(*t, info.child_type, attr, &child_id)) {
        const Table* vt = t->store.db().GetTable(info.name);
        Tuple full = ViewStore::MakeEdgeRow(parent_id, child_id, proj);
        in_view = vt != nullptr && vt->FindByKey(full) != nullptr;
      }
      if (in_view) continue;
      st = Status::Rejected(
          "insertion has a certain side effect: view " + info.name +
          " would gain unrequested row parent=" + std::to_string(parent_id) +
          " " + TupleToString(proj));
      break;
    }

    // Guarded candidate: decide by domain of the free classes involved.
    // Any atom touching an infinite-domain free class is avoided by the
    // fresh-value policy (case (b)); if no such atom exists the whole
    // condition is over finite domains and must be negated (case (c)).
    bool avoidable = false;
    for (const Atom& a : atoms) {
      for (const Sym* s : {&a.lhs, &a.rhs}) {
        if (!s->concrete() &&
            t->classes.TypeOf(s->cls) != ValueType::kBool) {
          avoidable = true;
        }
      }
    }
    if (avoidable) continue;
    if (atoms.empty()) {
      // Conditions hold outright but the projection is symbolic: whatever
      // the variables take, an unrequested row appears.
      st = Status::Rejected(
          "insertion has a certain side effect with free payload in view " +
          info.name);
      break;
    }
    f->out_conds->push_back(std::move(atoms));
  }
  return st;
}

/// Fresh-value generator for free infinite-domain classes.
class FreshValues {
 public:
  explicit FreshValues(const Database& base) {
    for (const std::string& tn : base.TableNames()) {
      const Table* bt = base.GetTable(tn);
      bt->ForEach([&](const Tuple& row) {
        for (const Value& v : row) {
          if (v.type() == ValueType::kInt) {
            max_int_ = std::max(max_int_, v.as_int());
          }
        }
      });
    }
  }

  Value Next(ValueType type) {
    switch (type) {
      case ValueType::kInt:
        return Value::Int(++max_int_);
      case ValueType::kString:
        return Value::Str("xvu_fresh_" + std::to_string(++counter_));
      default:
        return Value::Null();
    }
  }

 private:
  int64_t max_int_ = 0;
  int64_t counter_ = 0;
};

}  // namespace

Result<InsertTranslation> TranslateGroupInsertion(
    const ViewStore& store, const Database& base,
    const std::vector<ViewRowOp>& insertions, const InsertOptions& options,
    ThreadPool* pool) {
  Translator t(store, base, options);
  InsertTranslation out;

  // Drop ∆V rows already present in the view (the edge exists; XML-side
  // semantics make re-insertion a no-op) and index the rest as expected.
  std::vector<const ViewRowOp*> todo;
  for (const ViewRowOp& op : insertions) {
    const EdgeViewInfo* info = store.GetEdgeView(op.view_name);
    if (info == nullptr) return Status::NotFound(op.view_name);
    const Table* vt = store.db().GetTable(op.view_name);
    if (vt != nullptr && vt->FindByKey(op.row) != nullptr) continue;
    todo.push_back(&op);
    Tuple proj(op.row.begin() + 2, op.row.end());
    t.expected[op.view_name].insert(ExpectedKey(op.row[0].as_int(), proj));
  }
  if (todo.empty()) return out;

  // Step 1: tuple templates.
  for (const ViewRowOp* op : todo) {
    XVU_RETURN_NOT_OK(
        BuildTemplates(&t, *store.GetEdgeView(op->view_name), op->row));
  }
  out.num_templates = t.templates.size();

  bool any_new = false;
  for (const TupleTemplate& tmpl : t.templates) any_new |= tmpl.is_new;
  if (!any_new) {
    // Everything needed already exists; conditions were checked during
    // propagation, so the requested rows are derivable with ∆R = ∅.
    return out;
  }

  // Step 2: symbolic side-effect evaluation — for every view and every
  // choice of "first occurrence drawing from U". Each (view, forced
  // occurrence, new template) pass reads only state frozen above (plus
  // the mutex-guarded gen_index), so the passes fan out on the worker
  // pool when one is given; per-pass outputs land in per-task slots and
  // are merged below in this serial enumeration order, keeping the CNF —
  // and hence the whole translation — bit-identical to a serial run.
  struct SymTask {
    const EdgeViewInfo* info;
    size_t forced;
    size_t tmpl;
  };
  std::vector<SymTask> tasks;
  std::vector<const EdgeViewInfo*> task_views;
  for (const std::string& vname : store.EdgeViewNames()) {
    const EdgeViewInfo* info = store.GetEdgeView(vname);
    const SpjQuery& q = info->rule;
    size_t before = tasks.size();
    for (size_t forced = 0; forced < q.tables().size(); ++forced) {
      auto it = t.templates_by_table.find(q.tables()[forced].table);
      if (it == t.templates_by_table.end()) continue;
      for (size_t ti : it->second) {
        if (!t.templates[ti].is_new) continue;
        tasks.push_back(SymTask{info, forced, ti});
      }
    }
    if (tasks.size() > before) task_views.push_back(info);
  }
  PrebuildJoinIndexes(&t, task_views);
  out.num_tasks = tasks.size();
  std::vector<Status> task_status(tasks.size());
  std::vector<std::vector<std::vector<Atom>>> task_conds(tasks.size());
  ParallelFor(pool, tasks.size(), [&](size_t k) {
    if (t.aborted.load(std::memory_order_relaxed)) return;
    const SymTask& task = tasks[k];
    const SpjQuery& q = task.info->rule;
    JoinFrame f;
    f.info = task.info;
    f.forced = task.forced;
    f.out_conds = &task_conds[k];
    f.visit = VisitOrder(t, q, task.forced);
    std::vector<const SpjCondition*> seed = BuildFireLists(q, &f);
    f.assigned.assign(q.tables().size(), SymRow{});
    f.is_set.assign(q.tables().size(), 0);
    f.assigned[task.forced] = SymRow{nullptr, &t.templates[task.tmpl]};
    f.is_set[task.forced] = 1;
    // Conditions entirely within the forced occurrence fire now.
    bool viable = true;
    for (const SpjCondition* c : seed) {
      if (!ApplyCondition(t, &f, *c)) {
        viable = false;
        break;
      }
    }
    if (!viable) return;
    Status st = JoinRec(&t, &f, 0);
    if (!st.ok()) {
      task_status[k] = std::move(st);
      t.aborted.store(true, std::memory_order_relaxed);
    }
  });
  // First error in serial task order wins (a work-cap rejection racing a
  // concrete side effect may surface either — both reject the batch).
  for (const Status& st : task_status) XVU_RETURN_NOT_OK(st);
  size_t total_conds = 0;
  for (const auto& conds : task_conds) total_conds += conds.size();
  t.negative_conditions.reserve(total_conds);
  for (auto& conds : task_conds) {
    for (auto& cond : conds) {
      t.negative_conditions.push_back(std::move(cond));
    }
  }
  out.num_candidates = t.candidates_examined.load();

  // Step 3: CNF encoding over the finite-domain free classes.
  FiniteDomainEncoder enc;
  std::map<size_t, FiniteDomainEncoder::VarId> cls_var;
  auto var_of = [&](size_t cls) {
    auto it = cls_var.find(cls);
    if (it != cls_var.end()) return it->second;
    auto v = enc.AddVar({Value::Bool(false), Value::Bool(true)});
    cls_var.emplace(cls, v);
    return v;
  };
  auto atom_lit = [&](const Atom& a) -> Lit {
    // At least one side is a free class (finite == bool here).
    if (!a.lhs.concrete() && !a.rhs.concrete()) {
      return enc.EqVar(var_of(a.lhs.cls), var_of(a.rhs.cls));
    }
    const Sym& sym = a.lhs.concrete() ? a.rhs : a.lhs;
    const Sym& con = a.lhs.concrete() ? a.lhs : a.rhs;
    return enc.EqConst(var_of(sym.cls), con.value);
  };
  for (const std::vector<Atom>& cond : t.negative_conditions) {
    std::vector<Lit> clause;
    clause.reserve(cond.size());
    for (const Atom& a : cond) clause.push_back(-atom_lit(a));
    enc.AddClause(std::move(clause));
  }
  out.num_variables = cls_var.size();
  out.num_sat_vars = static_cast<size_t>(enc.cnf().num_vars());
  out.num_sat_clauses = enc.cnf().num_clauses();

  std::vector<bool> model;
  if (!t.negative_conditions.empty()) {
    out.used_sat = true;
    auto sat_t0 = std::chrono::steady_clock::now();
    PortfolioOptions popts = options.portfolio;
    if (popts.deadline.infinite()) popts.deadline = options.deadline;
    PortfolioStats pstats;
    SatResult res = SolvePortfolio(enc.cnf(), popts, &pstats);
    out.sat_stats = pstats.totals;
    out.sat_winner_lane = pstats.winner_lane;
    out.sat_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sat_t0)
            .count();
    if (res.kind != SatResult::Kind::kSat) {
      // A give-up under an expired deadline is a budget failure, not
      // evidence the update is untranslatable.
      if (res.kind == SatResult::Kind::kUnknown &&
          options.deadline.expired()) {
        return Status::DeadlineExceeded(
            "insertion translation: deadline expired in the SAT solver");
      }
      return Status::Rejected(
          "insertion rejected: no side-effect-free assignment found (" +
          std::string(res.kind == SatResult::Kind::kUnsat
                          ? "provably none exists"
                          : "solver gave up") +
          ")");
    }
    model = std::move(res.model);
  } else if (!cls_var.empty()) {
    // No constraints: any assignment works; default all-false.
    model.assign(static_cast<size_t>(enc.cnf().num_vars()) + 1, false);
  }

  // Step 4: instantiate the new templates into ∆R.
  FreshValues fresh(base);
  std::map<size_t, Value> fresh_cache;  // per root class
  for (const TupleTemplate& tmpl : t.templates) {
    if (!tmpl.is_new) continue;
    Tuple row;
    row.reserve(tmpl.slots.size());
    for (const Sym& s0 : tmpl.slots) {
      Sym s = t.classes.Resolve(s0);
      if (s.concrete()) {
        row.push_back(s.value);
        continue;
      }
      auto cit = cls_var.find(s.cls);
      if (cit != cls_var.end()) {
        XVU_ASSIGN_OR_RETURN(Value v, enc.Decode(cit->second, model));
        row.push_back(v);
        continue;
      }
      ValueType type = t.classes.TypeOf(s.cls);
      if (type == ValueType::kBool) {
        // Unconstrained finite class: any value.
        row.push_back(Value::Bool(false));
        continue;
      }
      auto fit = fresh_cache.find(s.cls);
      if (fit == fresh_cache.end()) {
        fit = fresh_cache.emplace(s.cls, fresh.Next(type)).first;
      }
      row.push_back(fit->second);
    }
    out.delta_r.ops.push_back(
        TableOp{TableOp::Kind::kInsert, tmpl.table, std::move(row)});
  }
  return out;
}

}  // namespace xvu
