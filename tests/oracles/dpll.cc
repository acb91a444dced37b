#include "tests/oracles/dpll.h"

#include <vector>

namespace xvu {

namespace {

enum class Assign : uint8_t { kUnset, kTrue, kFalse };

struct DpllState {
  const Cnf* cnf;
  std::vector<Assign> value;  // 1-indexed

  bool LitTrue(Lit l) const {
    Assign a = value[VarOf(l)];
    return a != Assign::kUnset && (a == Assign::kTrue) == SignOf(l);
  }
  bool LitFalse(Lit l) const {
    Assign a = value[VarOf(l)];
    return a != Assign::kUnset && (a == Assign::kTrue) != SignOf(l);
  }

  /// Repeated unit propagation. Returns false on conflict. Records the
  /// assignments made into `trail`.
  bool Propagate(std::vector<int32_t>* trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& clause : cnf->clauses()) {
        int unassigned = 0;
        Lit unit = 0;
        bool sat = false;
        for (Lit l : clause) {
          if (LitTrue(l)) {
            sat = true;
            break;
          }
          if (!LitFalse(l)) {
            ++unassigned;
            unit = l;
          }
        }
        if (sat) continue;
        if (unassigned == 0) return false;  // conflict
        if (unassigned == 1) {
          value[VarOf(unit)] = SignOf(unit) ? Assign::kTrue : Assign::kFalse;
          trail->push_back(VarOf(unit));
          changed = true;
        }
      }
    }
    return true;
  }

  int32_t PickBranchVar() const {
    // First unset variable occurring in an unsatisfied clause.
    for (const auto& clause : cnf->clauses()) {
      bool sat = false;
      for (Lit l : clause) {
        if (LitTrue(l)) {
          sat = true;
          break;
        }
      }
      if (sat) continue;
      for (Lit l : clause) {
        if (value[VarOf(l)] == Assign::kUnset) return VarOf(l);
      }
    }
    return 0;
  }

  bool Solve() {
    std::vector<int32_t> trail;
    if (!Propagate(&trail)) {
      for (int32_t v : trail) value[v] = Assign::kUnset;
      return false;
    }
    int32_t v = PickBranchVar();
    if (v == 0) return true;  // every clause satisfied
    for (Assign choice : {Assign::kTrue, Assign::kFalse}) {
      value[v] = choice;
      if (Solve()) return true;
      value[v] = Assign::kUnset;
    }
    for (int32_t t : trail) value[t] = Assign::kUnset;
    return false;
  }
};

}  // namespace

SatResult SolveDpllRecursive(const Cnf& cnf) {
  DpllState st;
  st.cnf = &cnf;
  st.value.assign(static_cast<size_t>(cnf.num_vars()) + 1, Assign::kUnset);
  SatResult res;
  if (st.Solve()) {
    res.kind = SatResult::Kind::kSat;
    res.model.assign(st.value.size(), false);
    for (size_t v = 1; v < st.value.size(); ++v) {
      res.model[v] = st.value[v] == Assign::kTrue;
    }
  } else {
    res.kind = SatResult::Kind::kUnsat;
  }
  return res;
}

}  // namespace xvu
